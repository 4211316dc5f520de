"""Run one slipchan CLI operation with spans recorded around each layer.

    python3 bench/trace_runner.py SPANS_FILE OP_ID -- CLI_ARGS...

The program is not changed: after importing ``slipchan.cli`` this script
wraps the public functions of each layer, rebinds every ``slipchan.*``
module attribute that refers to one of them (including names brought in
by ``from`` imports), patches the listed class methods, and then calls
``slipchan.cli.main(CLI_ARGS)``.  Spans are kept in memory as
(id, name, start, end, parent, op, error) and written to SPANS_FILE as JSON
when the operation ends, together with a few facts read from the values
the layers return.  The exit code is the CLI's.

A span started on a thread with no open span of its own (a pool worker)
takes as parent the innermost open span of the main thread, which is the
call that submitted the work and is blocked waiting for it.
"""

import sys
import time

_t0 = time.perf_counter()
_before = len(sys.modules)
import slipchan.cli  # noqa: E402  (timed: this is the CLI's import cost)

IMPORT_S = time.perf_counter() - _t0
MODULES_LOADED = len(sys.modules) - _before

import functools  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import threading  # noqa: E402

import numpy as np  # noqa: E402

from spans import LAYERS  # noqa: E402


class Recorder:
    """In-memory span store shared by every wrapper of one operation."""

    def __init__(self, op: int) -> None:
        self.op = op
        self.spans: list[tuple] = []
        self.facts: dict[str, float] = {"import_s": IMPORT_S,
                                        "modules_loaded": MODULES_LOADED}
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = self._stack()
        self._facts_lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add_facts(self, **values: float) -> None:
        with self._facts_lock:
            for key, value in values.items():
                self.facts[key] = self.facts.get(key, 0) + value

    def wrap(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main
                parent = main[-1] if main else -1
            sid = next(self._ids)
            stack.append(sid)
            error = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                error = True
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent, self.op, error))
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced


def _observe_enumerate(rec, args, kwargs, result):
    rec.add_facts(entries_enumerated=len(result))


def _observe_assemble(rec, args, kwargs, result):
    tensor = result.tensor
    useful = np.any(tensor != 0.0, axis=2)
    rec.add_facts(tensor_entries=tensor.size,
                  tensor_nonzero=int(np.count_nonzero(tensor)),
                  pairs_convected=useful.size,
                  pairs_useful=int(np.count_nonzero(useful)))


def _observe_integrate(rec, args, kwargs, result):
    names = ("system", "initial", "T", "dt")
    bound = dict(zip(names, args), **kwargs)
    rec.add_facts(steps=round(float(bound["T"]) / float(bound["dt"])))


OBSERVERS = {
    "modes.enumerate_spectrum": _observe_enumerate,
    "galerkin.assemble": _observe_assemble,
    "galerkin.integrate": _observe_integrate,
}


def install(rec: Recorder) -> None:
    """Wrap every target and rebind each slipchan attribute that names it."""
    replaced = {}
    for name in LAYERS:
        short, path = name.split(".", 1)
        module = sys.modules["slipchan." + short]
        observe = OBSERVERS.get(name)
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(rec.wrap(name, raw.__func__, observe)))
            else:
                setattr(cls, meth, rec.wrap(name, raw, observe))
        else:
            original = getattr(module, path)
            replaced[id(original)] = (original, rec.wrap(name, original, observe))
    for module_name, module in list(sys.modules.items()):
        if module_name != "slipchan" and not module_name.startswith("slipchan."):
            continue
        for attr, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


def main(argv: list[str]) -> int:
    spans_file, op = argv[0], int(argv[1])
    if argv[2] != "--":
        raise SystemExit("usage: trace_runner.py SPANS_FILE OP_ID -- CLI_ARGS...")
    rec = Recorder(op)
    install(rec)
    try:
        code = slipchan.cli.main(argv[3:])
    finally:
        with open(spans_file, "w", encoding="utf-8") as handle:
            json.dump({"facts": rec.facts, "spans": rec.spans}, handle,
                      separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
