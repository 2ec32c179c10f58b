"""Layer accounting from outside the program: wrap public calls, record spans.

Each :class:`Hook` names one public function or method of :mod:`repro` and
the span it records.  :class:`Patcher` installs the wrappers and puts the
original objects back; a module-level function is replaced in every
``repro`` module that bound it by name (``from x import f``), so call sites
that hold their own reference are covered too.

Spans live in memory (:class:`Tracer`): name, start, end and parent.  A
layer's self time is its spans' durations minus the time their child spans
cover.  The benchmark opens one root span around the timed section, so the
root's self time is the time no layer accounts for, and the layer self
times plus that remainder add up to the section's wall time.

Process-pool workers fork with the wrappers installed, but their spans stay
in the worker and are dropped: only the parent process's layers are
measured.  In the parent, the time spent waiting for workers is the
scheduler's self time (``engine.dispatch_s``).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

ROOT = "bench"


class Tracer:
    """In-memory span recorder plus the counts the layers report."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index, tag]`` per span, in opening
        #: order; the tag is an optional traffic class.
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: Named counts and sums observed at layer boundaries.
        self.counts: Dict[str, float] = defaultdict(float)

    @contextmanager
    def span(self, name: str, tag: Optional[str] = None) -> Iterator[list]:
        record = [name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None, tag]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> List[float]:
        """Self time of every span, indexed like :attr:`spans`."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def layer_self_times(self) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for (name, *_), seconds in zip(self.spans, self.self_times()):
            totals[name] += seconds
        return dict(totals)

    def tag_self_times(self, prefix: str) -> Dict[str, float]:
        """Self time per traffic tag of the spans whose name starts with
        *prefix*."""
        totals: Dict[str, float] = defaultdict(float)
        for (name, _, _, _, tag), seconds in zip(self.spans, self.self_times()):
            if name.startswith(prefix):
                totals[tag] += seconds
        return dict(totals)

    def calls(self) -> Dict[str, int]:
        totals: Dict[str, int] = defaultdict(int)
        for name, *_ in self.spans:
            totals[name] += 1
        return dict(totals)

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(
                [{"name": name, "start": start, "end": end, "parent": parent,
                  "tag": tag}
                 for name, start, end, parent, tag in self.spans],
                handle,
            )


@dataclass(frozen=True)
class Hook:
    """Wrap ``module:Qualified.name`` in a span called *layer*.

    *layer* may be a function of the call's arguments that returns the span
    name or a ``(name, traffic tag)`` pair.  *observe* sees
    ``(tracer, span, args, kwargs, result)`` after the call returns."""

    target: str
    layer: Any
    observe: Optional[Callable[..., None]] = None

    def resolve(self) -> Tuple[Any, str, Any]:
        module_name, _, qualname = self.target.partition(":")
        owner: Any = importlib.import_module(module_name)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, attr, owner.__dict__[attr]


def _wrap(tracer: Tracer, hook: Hook, original: Callable[..., Any]) -> Callable[..., Any]:
    layer = hook.layer
    observe = hook.observe

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        name = layer(args, kwargs) if callable(layer) else layer
        tag = None
        if isinstance(name, tuple):
            name, tag = name
        with tracer.span(name, tag) as span:
            result = original(*args, **kwargs)
        if observe is not None:
            observe(tracer, span, args, kwargs, result)
        return result

    return wrapper


class Patcher:
    """Installs wrappers for a set of hooks; :meth:`restore` undoes all."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def wrap(self, hook: Hook, make: Callable[[Callable[..., Any]], Callable[..., Any]]) -> None:
        owner, attr, original = hook.resolve()
        wrapper = make(original)
        if isinstance(owner, type):
            self._set(owner, attr, wrapper)
            return
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "repro":
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapper)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()


# -- the layer hooks ---------------------------------------------------------------

def _faults(args: tuple, kwargs: dict) -> list:
    faults = kwargs.get("faults", args[2] if len(args) > 2 else ())
    return list(faults)


def _leon3_class(args: tuple, kwargs: dict) -> Tuple[str, str]:
    """(span name, traffic class) of one ``Leon3RtlBackend.run`` call."""
    backend = args[0]
    faults = _faults(args, kwargs)
    if not faults:
        return "leon3.fast" if backend.fast else "leon3.ref", "fault-free"
    site = faults[0].site
    kind = "net" if site.index is None else "storage"
    cls = f"{site.unit.split('.')[0]}/{faults[0].model.value}/{kind}"
    ref = not backend.fast or kind == "net"
    return ("leon3.ref" if ref else "leon3.fast"), cls


def _observe_instructions(tracer: Tracer, span: list, args: tuple, kwargs: dict,
                          result: Any) -> None:
    tracer.counts[f"{span[0]}.instructions"] += result.instructions


def _observe_pack(tracer: Tracer, span: list, args: tuple, kwargs: dict,
                  result: Any) -> None:
    tracer.counts["lockstep.replicas"] += len(result)
    for outcome in result:
        tracer.counts[f"lockstep.resolution.{outcome.resolution}"] += 1


def _golden_layer(args: tuple, kwargs: dict) -> str:
    # Later calls return the engine's cached golden result: not a golden
    # acquisition, but still engine work.
    return "engine.golden" if args[0]._golden is None else "engine.plan"


def layer_hooks() -> List[Hook]:
    """Every timed public call, with the layer (``src/repro`` module) it
    belongs to."""
    engine = "repro.engine.campaign:CampaignEngine"
    session = "repro.store.store:CampaignSession"
    store = "repro.store.store:CampaignStore"
    return [
        Hook("repro.workloads.registry:build_program", "workloads.build"),
        Hook("repro.rtl.sites:SiteUniverse.sample", "rtl.sample"),
        Hook("repro.engine.backend:Leon3RtlBackend.run", _leon3_class,
             _observe_instructions),
        Hook("repro.engine.backend:IssBackend.run", "iss.run", _observe_instructions),
        Hook("repro.core.diversity:characterize_program", "core.characterize"),
        Hook(f"{engine}.golden_run", _golden_layer),
        Hook(f"{engine}.plan", "engine.plan"),
        Hook(f"{engine}.select_sites", "engine.plan"),
        Hook(f"{engine}.store_key", "engine.plan"),
        Hook(f"{engine}.run", "engine.run"),
        Hook("repro.engine.schedulers:execute_job", "engine.job"),
        Hook("repro.engine.schedulers:SerialScheduler.execute", "engine.dispatch"),
        Hook("repro.engine.checkpoint:_CheckpointRunnerBase.run_transient",
             "checkpoint.fork"),
        Hook("repro.engine.lockstep:LockstepPackRunner.run_pack", "lockstep.pack",
             _observe_pack),
        Hook("repro.faultinjection.comparison:compare_runs",
             "faultinjection.classify"),
        Hook(f"{store}.begin_campaign", "store.begin"),
        Hook(f"{session}.commit", "store.commit"),
        Hook(f"{session}.put_manifest", "store.manifest"),
        Hook(f"{store}.put_manifest", "store.manifest"),
        Hook(f"{session}.stored_records", "store.read"),
        Hook(f"{session}.golden_stats", "store.read"),
        Hook(f"{store}.stored_records", "store.read"),
        Hook(f"{store}.memo_get", "store.read"),
        Hook(f"{store}.artifact_put", "store.artifact_put"),
        Hook(f"{store}.artifact_get", "store.artifact_get"),
    ]


POOL_EXECUTE = Hook(
    "repro.engine.schedulers:MultiprocessingScheduler.execute", "engine.dispatch"
)


def install_layers(patcher: Patcher, tracer: Tracer) -> None:
    """Wrap every layer hook so its calls record spans into *tracer*.

    A hook whose target no longer exists (the program was refactored) is
    reported and skipped; its metrics then read 0."""
    for hook in layer_hooks():
        try:
            patcher.wrap(hook, lambda original, hook=hook: _wrap(tracer, hook, original))
        except (ImportError, AttributeError, KeyError):
            print(f"layer hook {hook.target} not found; skipped", file=sys.stderr)

    def pool_execute(original: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(original)
        def wrapper(self: Any, plan: Any, on_outcome: Any = None) -> Any:
            entered = time.perf_counter()
            first: List[float] = []

            def on_first(record: Any) -> None:
                if not first:
                    first.append(time.perf_counter())
                    tracer.counts["engine.pool_first_outcome_s"] += first[0] - entered
                if on_outcome is not None:
                    on_outcome(record)

            with tracer.span("engine.dispatch"):
                return original(self, plan, on_first)

        return wrapper

    patcher.wrap(POOL_EXECUTE, pool_execute)
