"""Child process of the traced run: one in-process ``liebrob`` CLI call.

    python tracer.py <trace 0|1> <result.json> <liebrob arguments...>

It times ``import liebrob.cli`` and ``liebrob.cli.main(arguments)``. With
trace 1 it first wraps the public calls each layer receives, by replacing
the names the calling module looks them up under, and records a span (name,
start, end, parent) around every call and a count for every dense matrix
exponential. Spans and counts stay in memory and are written to
``result.json`` when the call has returned. ``src/`` is not modified.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute, span name). Each module is the one whose global name
# the caller resolves at call time, so the wrapper sees every call.
SPANS = (
    ("liebrob.cli", "load_config", "config.load"),
    ("liebrob.cli", "run_verify_spin", "runner.verify"),
    ("liebrob.cli", "run_verify_harmonic", "runner.verify"),
    ("liebrob.runner", "assumption_constants", "lattice.constants"),
    ("liebrob.runner", "commutator_norm_curves", "lindblad.sweep"),
    ("liebrob.lindblad", "_superop_pieces", "lindblad.assemble"),
    ("liebrob.lindblad", "_assemble", "lindblad.assemble"),
    ("liebrob.bounds", "lambda0_fit", "bounds.lambda0"),
    ("liebrob.bounds", "build_j_matrix", "bounds.jmatrix"),
    ("liebrob.bounds", "theorem3_matrix", "bounds.jmatrix"),
    ("liebrob.bounds", "lightcone_arrivals", "bounds.lightcone"),
    ("liebrob.harmonic", "build_kernel", "harmonic.kernel"),
    ("liebrob.harmonic", "harmonic_commutator_norms", "harmonic.norms"),
    ("liebrob.harmonic", "symplectic_defect", "harmonic.symplectic"),
)

# (module, attribute, counter prefix) for the dense exponentials.
EXPONENTIALS = (
    ("liebrob.lindblad", "expm", "lindblad.expm"),
    ("liebrob.harmonic", "matrix_exp", "harmonic.expm"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._open: list[int] = []
        self.counts: dict[str, int] = {}

    def _span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append([name, time.perf_counter(), None, parent])
            self._open.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index][2] = time.perf_counter()
        return wrapper

    def _exponential(self, prefix, fn):
        @functools.wraps(fn)
        def wrapper(m, *args, **kwargs):
            calls, dim = f"{prefix}_calls", f"{prefix}_dim"
            self.counts[calls] = self.counts.get(calls, 0) + 1
            self.counts[dim] = max(self.counts.get(dim, 0), len(m))
            return fn(m, *args, **kwargs)
        return wrapper

    def _superop_bytes(self, fn):
        # Dense bytes the generator pieces occupy: pieces x D^4 x 16 (complex128).
        @functools.wraps(fn)
        def wrapper(model, *args, **kwargs):
            pieces = fn(model, *args, **kwargs)
            nbytes = len(pieces) * model.hilbert_dim ** 4 * 16
            key = "lindblad.superop_bytes"
            self.counts[key] = max(self.counts.get(key, 0), nbytes)
            return pieces
        return wrapper

    def install(self) -> list[str]:
        """Wrap every target; return the targets this version of liebrob lacks."""
        absent = []
        for module_name, attr, name in SPANS + EXPONENTIALS:
            module = sys.modules[module_name]
            fn = getattr(module, attr, None)
            if fn is None:
                absent.append(f"{module_name}.{attr}")
                continue
            if (module_name, attr, name) in EXPONENTIALS:
                fn = self._exponential(name, fn)
            else:
                if attr == "_superop_pieces":
                    fn = self._superop_bytes(fn)
                fn = self._span(name, fn)
            setattr(module, attr, fn)
        return absent


def main(argv: list[str]) -> int:
    traced, result_path, cli_args = argv[0] == "1", argv[1], argv[2:]
    start = time.perf_counter()
    import liebrob.cli

    import_s = time.perf_counter() - start
    tracer = Tracer() if traced else None
    absent = tracer.install() if tracer is not None else []
    start = time.perf_counter()
    exit_code = liebrob.cli.main(cli_args)
    main_s = time.perf_counter() - start
    result = {"exit_code": exit_code, "import_s": import_s, "main_s": main_s}
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = tracer.counts
        result["absent"] = absent
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
