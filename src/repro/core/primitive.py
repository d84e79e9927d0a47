"""Primitive contract and registry.

A *primitive* is the smallest reusable unit in the framework (paper §2.2):
it receives named inputs, performs a single operation, and returns named
outputs. Primitives carry metadata — engine category, documentation, fixed
and tunable hyperparameters — which is what lets pipelines be composed,
introspected, profiled, and tuned automatically.
"""

from __future__ import annotations

import copy
import inspect
from typing import Dict, List, Optional

from repro.exceptions import PrimitiveError

__all__ = [
    "HYPERPARAMETER_TYPES",
    "Primitive",
    "register_primitive",
    "get_primitive",
    "get_primitive_class",
    "list_primitives",
]

#: Hyperparameter types understood by the tuning subsystem.
HYPERPARAMETER_TYPES = ("int", "float", "bool", "categorical")

_PRIMITIVE_REGISTRY: Dict[str, type] = {}


class Primitive:
    """Base class for all primitives.

    Class attributes (metadata):
        name: registry name of the primitive.
        engine: one of ``"preprocessing"``, ``"modeling"``, ``"postprocessing"``.
        description: one-line human-readable description.
        fit_args: names of the context variables consumed by :meth:`fit`.
        produce_args: names of the context variables consumed by :meth:`produce`.
        produce_output: names of the context variables written by :meth:`produce`.
        fixed_hyperparameters: hyperparameters that are configurable but not
            explored by the tuner (mapping name -> default value).
        tunable_hyperparameters: mapping name -> spec dict with keys ``type``,
            ``default`` and either ``range`` (numeric) or ``values``
            (categorical / bool).
    """

    name: str = "primitive"
    engine: str = "preprocessing"
    description: str = ""
    fit_args: List[str] = []
    produce_args: List[str] = []
    produce_output: List[str] = []
    fixed_hyperparameters: Dict[str, object] = {}
    tunable_hyperparameters: Dict[str, dict] = {}
    #: Whether :meth:`update` maintains genuine incremental state across
    #: micro-batches (the streaming contract). When ``False`` the default
    #: :meth:`update` simply re-``produce``s over the sliding window the
    #: stream runner supplies, which is always correct but never cheaper.
    supports_stream: bool = False
    #: Whether :meth:`produce_batch` runs a genuinely fused (vectorized)
    #: implementation over many signals at once (the batch contract). When
    #: ``False`` the default :meth:`produce_batch` simply loops
    #: :meth:`produce` per signal, which is always correct but never
    #: cheaper.
    supports_batch: bool = False
    #: Whether :meth:`produce_batch_fused` implements the *opt-in* fused
    #: batch contract: the whole batch concatenated into single large
    #: tensor operations (batched matmuls for the NN forwards). Fused
    #: results are only guaranteed equal to the per-signal loop within a
    #: small numerical tolerance — BLAS summation order changes with the
    #: GEMM shape — so they are reachable only through ``exact=False``
    #: batch plans, never through the bitwise-exact plane.
    supports_fused_batch: bool = False
    #: Step-fusion category consumed by the plan compiler's fusion pass
    #: (``repro.core.plan``). Contiguous batch-mode steps whose categories
    #: are all non-``None`` lower into a single
    #: :class:`~repro.core.plan.FusedStep` executed in one pass:
    #:
    #: * ``"elementwise"`` — per-sample transforms (imputers, scalers,
    #:   error functions, thresholds);
    #: * ``"window"``      — windowing / aggregation reshapes;
    #: * ``"forward"``     — model forwards (NN inference, spectral).
    #:
    #: ``None`` (the default) keeps the step out of every fused chain —
    #: the right value for event-assembly postprocessors and for models
    #: whose per-signal state makes chaining pointless.
    fuse_category: Optional[str] = None
    #: Whether :meth:`produce_batch_fused` accepts an ``arena=`` keyword
    #: (an :class:`~repro.core.arena.ArenaPool`) for scratch buffers. Only
    #: consulted on the fused batch plane inside fused chains.
    fused_accepts_arena: bool = False

    def __init__(self, **hyperparameters):
        defaults = self.get_default_hyperparameters()
        unknown = set(hyperparameters) - set(defaults)
        if unknown:
            raise PrimitiveError(
                f"Unknown hyperparameters for primitive {self.name!r}: {sorted(unknown)}"
            )
        defaults.update(hyperparameters)
        self.hyperparameters = defaults
        for key, value in defaults.items():
            setattr(self, key, value)

    # ------------------------------------------------------------------ #
    # metadata helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def get_default_hyperparameters(cls) -> dict:
        """Return the merged fixed + tunable hyperparameter defaults."""
        defaults = dict(cls.fixed_hyperparameters)
        for key, spec in cls.tunable_hyperparameters.items():
            defaults[key] = spec.get("default")
        return copy.deepcopy(defaults)

    @classmethod
    def get_tunable_hyperparameters(cls) -> dict:
        """Return a deep copy of the tunable hyperparameter specification."""
        for key, spec in cls.tunable_hyperparameters.items():
            if spec.get("type") not in HYPERPARAMETER_TYPES:
                raise PrimitiveError(
                    f"Primitive {cls.name!r} declares hyperparameter {key!r} with "
                    f"unsupported type {spec.get('type')!r}"
                )
        return copy.deepcopy(cls.tunable_hyperparameters)

    @classmethod
    def metadata(cls) -> dict:
        """Return the primitive annotation block (paper §2.2)."""
        return {
            "name": cls.name,
            "engine": cls.engine,
            "description": cls.description or inspect.getdoc(cls) or "",
            "fit_args": list(cls.fit_args),
            "produce_args": list(cls.produce_args),
            "produce_output": list(cls.produce_output),
            "fixed_hyperparameters": copy.deepcopy(cls.fixed_hyperparameters),
            "tunable_hyperparameters": copy.deepcopy(cls.tunable_hyperparameters),
            "supports_stream": bool(cls.supports_stream),
            "supports_batch": bool(cls.supports_batch),
            "supports_fused_batch": bool(cls.supports_fused_batch),
            "fuse_category": cls.fuse_category,
        }

    # ------------------------------------------------------------------ #
    # execution contract
    # ------------------------------------------------------------------ #
    def fit(self, **kwargs) -> None:
        """Fit the primitive. Stateless primitives keep the default no-op."""

    def produce(self, **kwargs):
        """Produce outputs. Must return a dict keyed by ``produce_output``."""
        raise NotImplementedError

    def update(self, **kwargs):
        """Consume one micro-batch in streaming mode (incremental contract).

        ``update`` receives the same keyword arguments as :meth:`produce`
        — the stream runner hands it the current sliding window — and must
        return the same output dictionary. The default implementation
        re-``produce``s over the window, so every fitted primitive works in
        a stream out of the box. Primitives that declare
        ``supports_stream = True`` override this to fold the new samples
        into internal running state (rolling extrema, running error
        moments, trailing buffers) instead of recomputing from scratch.
        """
        return self.produce(**kwargs)

    def produce_batch(self, **kwargs):
        """Produce outputs for many signals in one call (batch contract).

        Every :attr:`produce_args` keyword holds a *list* with one entry per
        signal, and the returned dictionary maps every
        :attr:`produce_output` name to a list of the same length — entry
        ``i`` of every list belongs to signal ``i``. The default
        implementation loops :meth:`produce` over the signals, so every
        primitive accepts batches out of the box and the results are
        trivially identical to per-signal calls. Primitives that declare
        ``supports_batch = True`` override this with a fused NumPy pass
        over stacked arrays; such overrides MUST stay bitwise-identical to
        the per-signal loop (the batch data plane's parity guarantee).
        """
        sizes = {len(values) for values in kwargs.values()}
        if len(sizes) > 1:
            raise PrimitiveError(
                f"Primitive {self.name!r} received batch inputs of unequal "
                f"lengths {sorted(sizes)}"
            )
        size = sizes.pop() if sizes else 0
        produced = [
            self.produce(**{arg: values[i] for arg, values in kwargs.items()})
            for i in range(size)
        ]
        return {
            out: [result[out] for result in produced]
            for out in self.produce_output
        }

    def _produce_one(self, **kwargs):
        """Run :meth:`produce_batch` on a batch of one signal.

        Primitives whose batch kernel is their only implementation define
        :meth:`produce` through this, so the per-signal and batch planes
        execute the same code.
        """
        batch = self.produce_batch(
            **{arg: [value] for arg, value in kwargs.items()})
        return {out: values[0] for out, values in batch.items()}

    def produce_batch_fused(self, **kwargs):
        """Produce outputs for many signals in one *fused* call (opt-in).

        Same argument and return shape as :meth:`produce_batch`, but
        implementations may concatenate the whole batch into single large
        tensor operations whose results are only tolerance-equal to the
        per-signal loop (the ``exact=False`` batch contract). The default
        simply delegates to :meth:`produce_batch`, so the fused lowering
        is always safe to run; primitives that genuinely fuse must declare
        ``supports_fused_batch = True`` — the plan compiler only routes
        ``exact=False`` batch steps here for primitives that do.
        """
        return self.produce_batch(**kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{self.__class__.__name__}({self.hyperparameters})"


def register_primitive(cls: type) -> type:
    """Class decorator registering a primitive under ``cls.name``."""
    if not issubclass(cls, Primitive):
        raise PrimitiveError(f"{cls!r} is not a Primitive subclass")
    if not cls.name or cls.name == Primitive.name:
        raise PrimitiveError(f"Primitive class {cls.__name__} must define a unique name")
    if cls.engine not in ("preprocessing", "modeling", "postprocessing"):
        raise PrimitiveError(
            f"Primitive {cls.name!r} declares unknown engine {cls.engine!r}"
        )
    if cls.name in _PRIMITIVE_REGISTRY and _PRIMITIVE_REGISTRY[cls.name] is not cls:
        raise PrimitiveError(f"A different primitive named {cls.name!r} already exists")
    _PRIMITIVE_REGISTRY[cls.name] = cls
    return cls


def get_primitive_class(name: str) -> type:
    """Return the registered primitive class for ``name``."""
    _ensure_builtin_primitives_loaded()
    if name not in _PRIMITIVE_REGISTRY:
        raise PrimitiveError(
            f"Unknown primitive {name!r}. Registered: {sorted(_PRIMITIVE_REGISTRY)}"
        )
    return _PRIMITIVE_REGISTRY[name]


def get_primitive(name: str, hyperparameters: Optional[dict] = None) -> Primitive:
    """Instantiate a registered primitive with the given hyperparameters."""
    cls = get_primitive_class(name)
    return cls(**(hyperparameters or {}))


def list_primitives(engine: Optional[str] = None) -> List[str]:
    """List registered primitive names, optionally filtered by engine."""
    _ensure_builtin_primitives_loaded()
    names = sorted(_PRIMITIVE_REGISTRY)
    if engine is not None:
        names = [n for n in names if _PRIMITIVE_REGISTRY[n].engine == engine]
    return names


def _ensure_builtin_primitives_loaded() -> None:
    """Import the built-in primitive modules so they self-register."""
    # Imported lazily to avoid a circular import at package-load time.
    import repro.primitives  # noqa: F401
