"""Call tracer that wraps a package's functions from outside.

``Tracer.install`` replaces a function by a timing wrapper in every
loaded module of the package that holds it, because ``from .x import f``
copies the binding: patching the defining module alone misses callers
that imported the name.  Methods are replaced on their class.

Per traced name it records calls, self time (the span's duration minus
the time covered by traced spans it caused) and errors (exceptions
leaving the function).  It also counts calls made inside the span of
another traced name, outermost calls of a named group of functions, and,
when given a key function, the distinct inputs seen.  Computing a key
counts as time covered for the enclosing span, so it lands in no
function's self time.
"""

import hashlib
import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass, field


@dataclass
class FunctionStats:
    calls: int = 0
    self_s: float = 0.0
    errors: int = 0
    inputs: set = field(default_factory=set)


def digest(obj) -> bytes:
    """Stable fingerprint of an argument: array bytes with shape and dtype, else repr."""
    if hasattr(obj, "tobytes"):
        data = f"{obj.shape}{obj.dtype.str}".encode() + obj.tobytes()
    else:
        data = repr(obj).encode()
    return hashlib.blake2b(data, digest_size=16).digest()


class Tracer:
    def __init__(self, package: str, clock=time.perf_counter):
        self.package = package
        self.clock = clock
        self.stats = {}
        self.group_calls = Counter()
        self.within = Counter()  # (running name, called name) -> calls
        self._running = Counter()
        self._child_time = []  # one accumulator per open span
        self._patches = []  # (owner, attribute, original)

    def wrap(self, name: str, fn, *, group: str = None, key=None):
        """Timing wrapper for ``fn``, recorded under ``name``."""
        stats = self.stats.setdefault(name, FunctionStats())
        running, within, child_time, clock = (
            self._running, self.within, self._child_time, self.clock,
        )

        def traced(*args, **kwargs):
            stats.calls += 1
            if key is not None:
                keyed = clock()
                stats.inputs.add(key(*args, **kwargs))
                # the key costs tracing, not the caller's self time
                if child_time:
                    child_time[-1] += clock() - keyed
            entered = [name]
            if group is not None and not running[group]:
                self.group_calls[group] += 1
                entered.append(group)
            for outer in running:
                for inner in entered:
                    within[outer, inner] += 1
            for e in entered:
                running[e] += 1
            child_time.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stats.errors += 1
                raise
            finally:
                elapsed = clock() - start
                stats.self_s += elapsed - child_time.pop()
                if child_time:
                    child_time[-1] += elapsed
                for e in entered:
                    running[e] -= 1
                    if not running[e]:
                        del running[e]

        return traced

    def install(self, module: str, qualname: str, *, group: str = None, key=None):
        """Trace ``<package>.<module>.<qualname>`` under the name ``module.qualname``."""
        owner = importlib.import_module(f"{self.package}.{module}")
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapper = self.wrap(f"{module}.{qualname}", original, group=group, key=key)
        if path:
            self._patch(owner, attr, wrapper)
            return
        prefix = self.package + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self.package or mod_name.startswith(prefix)):
                continue
            for binding, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, binding, wrapper)

    def _patch(self, owner, attr: str, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def distinct_ratio(self, name: str) -> float:
        """Distinct inputs over calls; 0 when never called."""
        s = self.stats[name]
        return len(s.inputs) / s.calls if s.calls else 0.0
