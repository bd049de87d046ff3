"""Outside-in layer timing: wrap the public entry points of each layer.

Nothing under ``src/`` knows it is being measured. :func:`install` replaces
each entry point listed in :data:`ENTRIES` with a wrapper that keeps a
stack of open layer frames (the measured processes are single-threaded) and charges each layer its *self*
time, read from ``time.thread_time_ns`` (so a process that is preempted by
its siblings is not charged for the wait). A call into the layer that is
already on top of the stack opens no frame: same-layer nesting does not
change a layer's self time, and skipping it keeps the clock reads (about
0.5 us each) off recursive helpers such as the canonical TLV encoder.

A frame's ``calls`` counter therefore counts *entries into the layer from
another layer*, e.g. ``crypto.rsa`` calls are RSA sign/verify operations
and ``net.wire.encode`` calls are datagram encodings.

Glue frames (layer ``None``) mark dispatch points, such as a simulator
event callback or the wire world's delivery upcall, so that the protocol
code they run is not charged to the scheduler or the transport that
called it. Their self time is left unattributed.

Functions are rebound everywhere they are visible: the defining module and
every ``from ... import`` alias in any loaded ``repro`` module. Methods are
wrapped on the class that defines them, so subclasses that override a
method are charged to their own layer. Wrappers must be installed before
the system under test is built, because bound methods captured earlier
(message handlers, timer callbacks) would bypass them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time

# (layer, "module:qualname"). A qualname naming a class wraps every
# function defined in that class body (dunders excepted); a dotted
# qualname wraps one method; a bare name wraps a module-level function.
ENTRIES: tuple[tuple[str | None, str], ...] = (
    ("net.wire.encode", "repro.net.wire:encode_datagram"),
    ("net.wire.encode", "repro.net.wire:encode_wire_payload"),
    ("net.wire.decode", "repro.net.wire:decode_datagram"),
    ("net.wire.decode", "repro.net.wire:decode_wire_payload"),
    ("net.tcp.transmit", "repro.net.tcp:AsyncioTransport.transmit"),
    ("net.tcp.transmit", "repro.net.tcp:_PeerLink.enqueue"),
    ("net.tcp.transmit", "repro.net.framing:encode_frame"),
    ("net.tcp.receive", "repro.net.tcp:AsyncioTransport._handle_frame"),
    ("net.tcp.receive", "repro.net.framing:FrameDecoder.feed"),
    ("net.world", "repro.net.world:NetWorld.send"),
    ("net.world", "repro.net.world:NetWorld.multicast"),
    (None, "repro.net.world:NetWorld.deliver"),
    ("crypto.rsa", "repro.crypto.rsa:RsaKeyPair.sign"),
    ("crypto.rsa", "repro.crypto.rsa:verify"),
    ("crypto.rsa", "repro.crypto.signing:RsaSigner.sign"),
    ("crypto.rsa", "repro.crypto.signing:KeyRing.verify"),
    ("crypto.symmetric", "repro.crypto.symmetric:encrypt"),
    ("crypto.symmetric", "repro.crypto.symmetric:decrypt"),
    ("crypto.encoding", "repro.crypto.encoding:canonical_bytes"),
    ("crypto.encoding", "repro.crypto.encoding:parse_canonical"),
    ("crypto.digests", "repro.crypto.digests:digest"),
    ("crypto.digests", "repro.crypto.digests:hmac_digest"),
    ("bft.replica", "repro.bft.replica:BftReplica"),
    ("bft.client", "repro.bft.client:BftClientEngine"),
    ("itdos.replica", "repro.itdos.replica:ItdosServerElement"),
    ("itdos.replica", "repro.itdos.readtier:ReadOnlyElement"),
    ("itdos.gm", "repro.itdos.group_manager:GroupManagerElement"),
    ("itdos.sockets", "repro.itdos.sockets:OutgoingConnection"),
    ("itdos.sockets", "repro.itdos.sockets:SmiopEndpoint"),
    ("itdos.sockets", "repro.itdos.smiop:SmiopConnectionAdapter"),
    ("itdos.sockets", "repro.itdos.smiop:SmiopTransport"),
    ("itdos.sockets", "repro.itdos.client:ItdosClient"),
    ("itdos.voter", "repro.itdos.voter:ReplyVoter"),
    ("itdos.voter", "repro.itdos.voter:ReadVoter"),
    ("orb.marshal", "repro.orb.core:Orb.marshal_request"),
    ("orb.marshal", "repro.orb.core:Orb.marshal_reply"),
    ("orb.marshal", "repro.giop.messages:encode_request"),
    ("orb.marshal", "repro.giop.messages:encode_reply"),
    ("orb.unmarshal", "repro.orb.core:Orb.unmarshal_reply"),
    ("orb.unmarshal", "repro.giop.messages:decode_message"),
    ("orb.unmarshal", "repro.giop.messages:peek_request_header"),
    ("orb.dispatch", "repro.orb.core:Orb.dispatch"),
    ("sim.scheduler", "repro.sim.scheduler:Scheduler.schedule"),
    ("sim.scheduler", "repro.sim.scheduler:Scheduler.cancel"),
    ("sim.scheduler", "repro.sim.scheduler:Scheduler.step"),
    ("sim.scheduler", "repro.sim.scheduler:Scheduler.run"),
    ("sim.network", "repro.sim.network:Network.send"),
    ("sim.network", "repro.sim.network:Network.multicast"),
)

#: Every named layer, in report order.
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _ in ENTRIES if layer))

#: Entries only the wire backend can reach.
WIRE_ONLY = frozenset(t for _, t in ENTRIES if t.startswith("repro.net."))


class Tracer:
    """Self-time and entry counts per layer for a single-threaded process."""

    def __init__(self) -> None:
        self.names: list[str | None] = [*LAYERS, None]
        self.glue = len(LAYERS)
        self.self_ns = [0] * len(self.names)
        self.calls = [0] * len(self.names)
        # One hit counter per entry, plus one for glued event callbacks.
        self.hits = [0] * (len(ENTRIES) + 1)
        # Open frames as [layer, child_ns] pairs.
        self.stack: list[list[int]] = []

    def snapshot(self) -> dict[str, list[int]]:
        """``{layer: [self_ns, calls]}`` for every named layer."""
        return {
            name: [self.self_ns[i], self.calls[i]]
            for i, name in enumerate(self.names)
            if name is not None
        }

    def unreached(self) -> list[str]:
        """Entry points that were never called since :func:`install`."""
        return [target for (_, target), n in zip(ENTRIES, self.hits) if n == 0]

    def wrap(self, fn, layer: int, entry: int):
        stack, self_ns, calls, hits = self.stack, self.self_ns, self.calls, self.hits
        clock = time.thread_time_ns

        def wrapper(*args, **kwargs):
            hits[entry] += 1
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            calls[layer] += 1
            frame = [layer, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_ns[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return wrapper


def _import_all() -> None:
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name != "repro.__main__":
            importlib.import_module(info.name)


def _rebind_everywhere(original, wrapped) -> int:
    """Replace ``original`` in every loaded repro module; returns the count."""
    count = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)
                count += 1
    return count


def _wrap_method(tracer: Tracer, cls: type, name: str, layer: int, entry: int) -> None:
    raw = cls.__dict__[name]
    if isinstance(raw, (staticmethod, classmethod)):
        wrapped = functools.wraps(raw.__func__)(tracer.wrap(raw.__func__, layer, entry))
        setattr(cls, name, type(raw)(wrapped))
    elif inspect.isfunction(raw):
        setattr(cls, name, functools.wraps(raw)(tracer.wrap(raw, layer, entry)))
    else:
        raise TypeError(f"{cls.__qualname__}.{name} is not a function")


def install(tracer: Tracer) -> None:
    """Wrap every entry in :data:`ENTRIES`; call before building a system."""
    _import_all()
    layer_ids = {name: i for i, name in enumerate(tracer.names)}
    for entry, (layer_name, target) in enumerate(ENTRIES):
        layer = layer_ids[layer_name]
        module_name, qualname = target.split(":")
        module = sys.modules[module_name]
        owner_name, _, member = qualname.rpartition(".")
        if owner_name:
            _wrap_method(tracer, getattr(module, owner_name), member, layer, entry)
            continue
        obj = getattr(module, qualname)
        if inspect.isclass(obj):
            for name, raw in list(vars(obj).items()):
                is_dunder = name.startswith("__") and name.endswith("__")
                if not is_dunder and (
                    inspect.isfunction(raw) or isinstance(raw, (staticmethod, classmethod))
                ):
                    _wrap_method(tracer, obj, name, layer, entry)
        elif _rebind_everywhere(obj, functools.wraps(obj)(tracer.wrap(obj, layer, entry))) == 0:
            raise RuntimeError(f"{target} was not rebound anywhere")
    _glue_scheduler_callbacks(tracer)


def _glue_scheduler_callbacks(tracer: Tracer) -> None:
    """Run each simulator event callback in a glue frame.

    Without it, every protocol step a delivery or timer triggers below the
    first wrapped layer would count as scheduler self time.
    """
    from repro.sim.scheduler import Scheduler

    schedule = Scheduler.schedule  # already the sim.scheduler wrapper
    glue, entry = tracer.glue, len(ENTRIES)

    def schedule_glued(self, delay, callback):
        return schedule(self, delay, tracer.wrap(callback, glue, entry))

    Scheduler.schedule = functools.wraps(schedule)(schedule_glued)
