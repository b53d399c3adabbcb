"""Wrappers the traced run installs on each layer's public callables.

Nothing here edits the program: :meth:`LayerTracer.install` rebinds the
public names a layer is called through (module functions and class
methods) to thin wrappers that time each call into a
:class:`~spans.Recorder`, and :meth:`LayerTracer.uninstall` puts the
originals back.  Only the traced process installs them.

A name is rebound in every module that imported it, because a
``from .kernels import run_plan`` binding in ``batch`` is what ``batch``
calls.  The boundaries are:

* ``flow``: ``wave_pipeline``;
* ``kernels``: ``compile_netlist`` (bound in ``kernels``, ``batch`` and
  ``serve.server``) and ``run_plan`` (bound in ``batch``);
* ``batch``: ``simulate_streams_packed`` (bound in ``batch`` and
  ``serve.server``) and ``PackedSession.feed`` / ``pump`` / ``flush``;
* ``server``: ``SimulationServer.submit`` / ``submit_many``;
* ``shards``: ``ProcessShardPool.simulate``;
* ``client``: ``SimulationClient.submit_many``.

Work inside process-shard workers cannot be seen from here: a worker
is a separate process whose functions these wrappers never reach, so
``shards.simulate`` is the parent's view of a round trip (pickling,
pipe, worker compute and reply together).

Request ids: the workload registers ``id(payload) -> request id`` for
every payload array it submits.  The in-process server passes ndarray
payloads by reference, so the same ids identify a request in
``submit_many`` and in the batch that simulates it.  Arrays that arrive
unpickled from the socket are unknown; ``SimulationServer.submit_many``
gives them fresh negative ids, which the process-shard batch then
carries.  The client's wire request id is internal to the client, so a
request is not stitched across the socket hop.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.core.wavepipe import batch, flow, kernels
from repro.serve import client as client_module
from repro.serve import server as server_module
from repro.serve import shards as shards_module

from spans import Recorder, Span

#: Span names of the admission, batch and client boundaries.
SERVER_SUBMIT = ("server.submit", "server.submit_many")
SIMULATE = "batch.simulate_streams_packed"
SHARD_BATCH = "shards.simulate"
CLIENT_SUBMIT = "client.submit_many"


class LayerTracer:
    """Installs and removes the layer wrappers around one recorder."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        #: id(payload array) -> request id, kept by the workload
        self.request_ids: dict[int, int] = {}
        #: server-side request id -> perf_counter_ns at future resolution
        self.resolved_ns: dict[int, int] = {}
        #: interference events returned by each run_plan call
        self.events: list[int] = []
        #: (netlist id, waves per stream) of each simulate call
        self.shapes: list[tuple[int, tuple[int, ...]]] = []
        self.netlists: dict[int, object] = {}
        self._fresh_ids = itertools.count(-1, -1)
        self._patches: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------
    def install(self) -> None:
        if self._patches:
            return
        patch = self._patch
        patch(flow, "wave_pipeline", "flow.wave_pipeline")
        for owner in (kernels, batch, server_module):
            patch(owner, "compile_netlist", "kernels.compile_netlist")
        patch(batch, "run_plan", "kernels.run_plan", after=self._count_events)
        for owner in (batch, server_module):
            patch(
                owner, "simulate_streams_packed", SIMULATE,
                streams_at=1, after=self._note_shape,
            )
        for method in ("feed", "pump", "flush"):
            patch(batch.PackedSession, method, f"batch.session.{method}")
        server_class = server_module.SimulationServer
        patch(
            server_class, "submit", "server.submit", streams_at=2,
            single=True, fresh_ids=True, after=self._stamp_resolution,
        )
        patch(
            server_class, "submit_many", "server.submit_many", streams_at=2,
            fresh_ids=True, after=self._stamp_resolution,
        )
        patch(
            shards_module.ProcessShardPool, "simulate", SHARD_BATCH,
            streams_at=2,
        )
        patch(
            client_module.SimulationClient, "submit_many", CLIENT_SUBMIT,
        )

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(
        self,
        owner: object,
        attr: str,
        name: str,
        *,
        streams_at: Optional[int] = None,
        single: bool = False,
        fresh_ids: bool = False,
        after: Optional[Callable[[tuple, object, tuple], None]] = None,
    ) -> None:
        # a class attribute is read raw, so the function (not a bound
        # method) is wrapped and later restored
        original = (
            owner.__dict__[attr]
            if isinstance(owner, type)
            else getattr(owner, attr)
        )
        call = self.recorder.call

        def traced(*args: object, **kwargs: object) -> object:
            ids: tuple[int, ...] = ()
            if streams_at is not None:
                streams = args[streams_at]
                ids = self._ids_of([streams] if single else streams, fresh_ids)
            result = call(name, original, args, kwargs, ids)
            if after is not None:
                after(args, result, ids)
            return result

        functools.update_wrapper(traced, original)
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    # -- per-call bookkeeping ------------------------------------------
    def _ids_of(
        self, streams: Sequence[object], fresh: bool
    ) -> tuple[int, ...]:
        ids = []
        for stream in streams:
            rid = self.request_ids.get(id(stream))
            if fresh and (rid is None or rid < 0):
                # an unpickled array from the socket: a server-local id
                rid = next(self._fresh_ids)
                self.request_ids[id(stream)] = rid
            if rid is not None:
                ids.append(rid)
        return tuple(ids)

    def _count_events(self, args: tuple, result: object, ids: tuple) -> None:
        self.events.append(len(result[1]))

    def _note_shape(self, args: tuple, result: object, ids: tuple) -> None:
        netlist, streams = args[0], args[1]
        self.netlists[id(netlist)] = netlist
        waves = tuple(len(stream) for stream in streams)
        self.shapes.append((id(netlist), waves))

    def _stamp_resolution(
        self, args: tuple, result: object, ids: tuple
    ) -> None:
        resolved = self.resolved_ns
        # submit returns one future, submit_many a list of them
        futures = result if isinstance(result, list) else [result]
        for rid, future in zip(ids, futures):
            future.add_done_callback(
                lambda _, rid=rid: resolved.__setitem__(
                    rid, time.perf_counter_ns()
                )
            )


@dataclass(frozen=True)
class RequestStages:
    """One request's path through admission, queue and batch, in ns."""

    end_to_end: int  # submit span start -> future resolved
    submit: int  # its share of the admission span
    queue_wait: int  # admission end -> batch span start
    batch: int  # the whole batch span it rode in
    resolve: int  # batch span end -> future resolved

    @property
    def unattributed(self) -> int:
        """End to end minus the spans on the path (submit and batch)."""
        return self.end_to_end - self.submit - self.batch


def request_stages(
    spans: Sequence[Span],
    resolved_ns: dict[int, int],
    batch_name: str,
) -> list[RequestStages]:
    """Stitch server-side spans and resolution stamps per request."""
    submit_of: dict[int, Span] = {}
    batch_of: dict[int, Span] = {}
    for span in spans:
        if span.name in SERVER_SUBMIT:
            for rid in span.request_ids:
                submit_of[rid] = span
        elif span.name == batch_name:
            for rid in span.request_ids:
                batch_of[rid] = span
    stages = []
    for rid, submit in submit_of.items():
        ride = batch_of.get(rid)
        done = resolved_ns.get(rid)
        if ride is None or done is None:
            continue
        stages.append(
            RequestStages(
                end_to_end=done - submit.start_ns,
                submit=submit.duration_ns // len(submit.request_ids),
                queue_wait=ride.start_ns - submit.end_ns,
                batch=ride.duration_ns,
                resolve=done - ride.end_ns,
            )
        )
    return stages
