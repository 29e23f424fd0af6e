"""Application state protocol, snapshot strategies and saved-state records.

Time Warp objects must expose copyable state so the kernel can checkpoint
and restore it.  The contract mirrors WARPED's ``BasicState``:

* ``copy()`` returns a deep, independent snapshot;
* ``size_bytes()`` reports the modelled size, which the cost model charges
  per checkpoint (large states make frequent checkpointing expensive —
  the whole reason dynamic checkpoint intervals matter);
* equality is *value* equality, used by tests to verify that rollback +
  coast-forward reproduces the exact pre-straggler state.

:class:`RecordState` gives applications a dataclass-friendly base: any
dataclass whose fields are immutables, lists/dicts of immutables, or nested
``RecordState`` values inherits a correct ``copy``/``size_bytes``/``__eq__``.

*How* the kernel takes a snapshot is pluggable (the checkpoint hot path is
one of the costs the paper's controllers reason about, so it should be a
measured choice, not a hard-coded one): a :class:`SnapshotStrategy` turns a
live state into an independent snapshot.  ``repro-bench perf`` measures the
strategies against each other (``snapshot.*`` micro-benchmarks); the
default is selected per run via ``SimulationConfig.snapshot``.
"""

from __future__ import annotations

import copy as _copy
import dataclasses
import pickle
from dataclasses import dataclass
from typing import Any, Protocol, runtime_checkable

from .errors import ConfigurationError
from .event import EventKey, VirtualTime, payload_size_bytes

try:  # optional fast path for array-valued state fields
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on bare installs
    _np = None


@runtime_checkable
class AppState(Protocol):
    """Structural protocol every simulation-object state must satisfy."""

    def copy(self) -> "AppState":
        """Return an independent snapshot of this state."""
        ...

    def size_bytes(self) -> int:
        """Modelled size of the state in bytes (drives checkpoint cost)."""
        ...


def _copy_value(value: Any) -> Any:
    """Deep-copy a state field without the generality (and cost) of
    :func:`copy.deepcopy`.

    Supports the field types :class:`RecordState` documents.  Unknown
    mutable objects must themselves expose ``copy()``.  Exact-type checks
    come first: the overwhelming majority of state fields are plain ints,
    floats, strings, lists and dicts, and ``type(x) is T`` beats an
    ``isinstance`` chain on this path (run per field per checkpoint).
    """
    kind = type(value)
    if kind is int or kind is float or kind is str or value is None or kind is bool:
        return value
    if kind is list:
        return [_copy_value(item) for item in value]
    if kind is dict:
        return {key: _copy_value(item) for key, item in value.items()}
    if _np is not None and kind is _np.ndarray:
        # struct-of-arrays states: one C memcpy instead of a field walk
        return value.copy()
    if isinstance(value, (int, float, str, bytes, bool, tuple, frozenset)):
        # tuples may contain mutables in theory; the documented contract is
        # that tuple fields hold immutables, so sharing is safe.
        return value
    if isinstance(value, list):
        return [_copy_value(item) for item in value]
    if isinstance(value, dict):
        return {key: _copy_value(item) for key, item in value.items()}
    if isinstance(value, set):
        return set(value)
    if hasattr(value, "copy"):
        return value.copy()
    raise TypeError(
        f"state field of type {type(value).__name__} is not copyable; "
        "use immutables, list/dict/set containers, or objects with copy()"
    )


def _value_size(value: Any) -> int:
    """Modelled byte size of a state field (same spirit as payload sizes)."""
    if _np is not None and type(value) is _np.ndarray:
        return 8 + value.nbytes
    if isinstance(value, list):
        return 8 + sum(_value_size(item) for item in value)
    if isinstance(value, dict):
        return 8 + sum(_value_size(k) + _value_size(v) for k, v in value.items())
    if isinstance(value, (set, frozenset)):
        return 8 + sum(_value_size(item) for item in value)
    if hasattr(value, "size_bytes") and not isinstance(value, (int, float)):
        return int(value.size_bytes())
    return payload_size_bytes(value)


#: Per-class cache of dataclass field names.  ``dataclasses.fields()``
#: rebuilds a tuple of Field objects on every call, and the field walk
#: runs on every checkpoint save, rollback restore and state comparison —
#: the kernel's single hottest allocation site before this cache.
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def _field_names(cls: type) -> tuple[str, ...]:
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = tuple(f.name for f in dataclasses.fields(cls))
        _FIELD_NAMES[cls] = names
    return names


@dataclass
class RecordState:
    """Base class turning any dataclass into a valid :class:`AppState`.

    Subclasses should be declared with ``@dataclass`` and fields drawn from
    the supported types (immutables, lists/dicts/sets thereof, or nested
    states).  ``copy`` walks the fields, so it stays correct as models
    evolve without per-class boilerplate.
    """

    def copy(self):
        cls = type(self)
        clone = cls.__new__(cls)
        for name in _field_names(cls):
            setattr(clone, name, _copy_value(getattr(self, name)))
        return clone

    def size_bytes(self) -> int:
        return sum(
            _value_size(getattr(self, name)) for name in _field_names(type(self))
        )

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name)
            for name in _field_names(type(self))
        )

    __hash__ = None  # type: ignore[assignment]  # states are mutable


# --------------------------------------------------------------------- #
# snapshot strategies
# --------------------------------------------------------------------- #
class SnapshotStrategy(Protocol):
    """Turns a live application state into an independent snapshot."""

    #: short identifier (used by config specs and benchmark names)
    name: str

    def snapshot(self, state: AppState) -> AppState:
        """Return a deep, independent copy of ``state``."""
        ...


class CopySnapshot:
    """Delegate to the state's own ``copy()`` (the WARPED contract).

    This is the default: application ``copy()`` implementations (or the
    :class:`RecordState` field walk) know their own structure and beat the
    generic serializers on the small, flat states PDES models carry.
    """

    name = "copy"

    def snapshot(self, state: AppState) -> AppState:
        return state.copy()


class PickleSnapshot:
    """Pickle round-trip: ``loads(dumps(state))``.

    Runs the copy loop in C and honours ``__getstate__``/``__setstate__``,
    so states that define a reduced pickled form (dropping caches or
    derived fields) get that fast path automatically.  Wins over
    :class:`CopySnapshot` once states grow large container fields.
    """

    name = "pickle"

    def snapshot(self, state: AppState) -> AppState:
        return pickle.loads(pickle.dumps(state, pickle.HIGHEST_PROTOCOL))


class DeepcopySnapshot:
    """:func:`copy.deepcopy` — the generality fallback.

    Handles arbitrary object graphs (cycles, shared sub-objects) that the
    structured strategies reject; pays for it on every call.  Exists so an
    application with exotic state can still run, and so the benchmark
    suite can show what the generality costs.
    """

    name = "deepcopy"

    def snapshot(self, state: AppState) -> AppState:
        return _copy.deepcopy(state)


class ArraySnapshot:
    """Block-copy snapshot for array-heavy states (the numpy fast path).

    Walks :class:`RecordState` fields once and copies each ``ndarray``
    field with ``ndarray.copy()`` — a single C memcpy per array, no
    per-element dispatch — including lists of arrays (struct-of-arrays
    states).  Non-array fields, and states that are not ``RecordState``
    dataclasses, fall back to the :class:`CopySnapshot` semantics, and the
    whole strategy degrades to ``copy`` when numpy is absent, so it is
    always safe to select.
    """

    name = "array"

    def snapshot(self, state: AppState) -> AppState:
        if _np is None or not isinstance(state, RecordState):
            return state.copy()
        ndarray = _np.ndarray
        cls = type(state)
        clone = cls.__new__(cls)
        for name in _field_names(cls):
            value = getattr(state, name)
            kind = type(value)
            if kind is ndarray:
                setattr(clone, name, value.copy())
            elif (
                kind is list
                and value
                and all(type(item) is ndarray for item in value)
            ):
                setattr(clone, name, [item.copy() for item in value])
            else:
                setattr(clone, name, _copy_value(value))
        return clone


#: Registry of named strategies (``SimulationConfig.snapshot`` specs).
SNAPSHOT_STRATEGIES: dict[str, type] = {
    "copy": CopySnapshot,
    "pickle": PickleSnapshot,
    "deepcopy": DeepcopySnapshot,
    "array": ArraySnapshot,
}

#: Shared default instance (strategies are stateless).
COPY_SNAPSHOT = CopySnapshot()


def resolve_snapshot_strategy(spec: "str | SnapshotStrategy") -> SnapshotStrategy:
    """Resolve a config spec — a registry name or a strategy instance."""
    if isinstance(spec, str):
        try:
            return SNAPSHOT_STRATEGIES[spec]()
        except KeyError:
            raise ConfigurationError(
                f"unknown snapshot strategy {spec!r}; "
                f"choose from {sorted(SNAPSHOT_STRATEGIES)}"
            ) from None
    if not hasattr(spec, "snapshot"):
        raise ConfigurationError(
            f"snapshot strategy {spec!r} does not implement snapshot()"
        )
    return spec


@dataclass(slots=True)
class SavedState:
    """One entry in an object's state queue.

    Attributes:
        last_key: total-order key of the last event executed before the
            snapshot was taken (``None`` for the initial pre-simulation
            snapshot).  Rollback selects the newest snapshot whose
            ``last_key`` precedes the straggler.
        lvt: the object's LVT at snapshot time.
        event_count: number of events the object had executed in total —
            used to restore the periodic-checkpoint phase counter.
        state: the snapshot itself (an independent copy).
        save_cost: modelled CPU cost charged when the snapshot was taken
            (recorded so the checkpoint controller's cost index can be
            audited per entry).
        size: ``state.size_bytes()``, measured once when the snapshot was
            taken; restore costing and memory sampling read it instead of
            walking the state again.
    """

    last_key: EventKey | None
    lvt: VirtualTime
    event_count: int
    state: AppState
    save_cost: float = 0.0
    size: int = 0

    def precedes(self, key: EventKey) -> bool:
        """True if this snapshot was taken strictly before ``key``."""
        return self.last_key is None or self.last_key < key
