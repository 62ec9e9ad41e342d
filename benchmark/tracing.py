"""Per-layer spans and work counters, recorded from outside the program.

The tracer replaces each traced skewspec function with a wrapper in every
skewspec module namespace that holds it, so calls between modules and
within one module both go through the wrapper, and puts the originals
back on ``remove``.  Nothing under ``src/`` changes.

A timed tracer records, per span, inclusive seconds, self seconds (minus
the time of traced calls made inside it), calls and calls that raised.
An untimed tracer reads no clock: it wraps only the functions behind the
exact counters, so untraced runs still record them.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

SPANS = (
    "cli.run",
    "io.parse_graph",
    "io.serialize_graph",
    "io.render_report",
    "graph.build_graph",
    "graph.from_arcs",
    "graph.bipartition",
    "graph.skew_adjacency",
    "products.oriented_product",
    "products.cartesian_product",
    "families.generate_family",
    "spectra.skew_energy",
    "spectra.skew_spectrum",
    "spectra.adjacency_spectrum",
    "spectra.skew_gram",
    "spectra.is_gram_scalar",
    "switching.switch",
    "switching.switching_equivalent",
    "switching.chordless_cycles",
    "switching.is_uniformly_oriented",
    "switching.all_chordless_uniform",
    "switching.matches_adjacency_spectrum",
    "switching.equivalent_to_elementary",
    "search.find_max_energy_orientation",
)

# Wrapped for their counters only; they are not spans.
_COUNT_ONLY = ("spectra.symmetric_eigenvalues", "graph.adjacency_matrix")

# The functions the exact counters come from, wrapped in every run.
_EXACT = (
    "spectra.skew_spectrum",
    "spectra.symmetric_eigenvalues",
    "switching.chordless_cycles",
    "search.find_max_energy_orientation",
)

COUNTERS = {
    "io.parse_graph.bytes": "bytes",
    "io.serialize_graph.bytes": "bytes",
    "products.oriented_product.edges": "count",
    "spectra.eig_dim_sum": "count",
    "spectra.eig_n3_sum": "count",
    "spectra.dense_bytes": "bytes",
    "switching.chordless_cycles.count": "count",
    "search.states": "count",
}

#: Unit of every metric in ``Tracer.snapshot()``.
PER_LAYER_UNITS = {
    **{
        f"{span}.{suffix}": unit
        for span in SPANS
        for suffix, unit in (("s", "s"), ("self_s", "s"), ("calls", "count"), ("errors", "count"))
    },
    **COUNTERS,
    "switching.uniform_tests_per_cycle": "ratio",
    "search.states_per_s": "1/s",
}



def _dense(c: dict, n: int) -> None:
    # Computed, not measured: 8 bytes per entry of an n x n int64 or
    # float64 array the call builds.
    c["spectra.dense_bytes"] += 8 * n * n


def _eig(c: dict, n: int) -> None:
    c["spectra.eig_dim_sum"] += n
    c["spectra.eig_n3_sum"] += n**3
    _dense(c, n)  # the float64 copy handed to the solver


def _on_skew_spectrum(c, args, result):
    if args[0].n:
        _eig(c, args[0].n)


def _on_symmetric_eigenvalues(c, args, result):
    _eig(c, len(args[0]))


def _on_chordless(c, args, result):
    c["switching.chordless_cycles.count"] += len(result)


def _on_search(c, args, result):
    c["search.states"] += result.states


def _on_parse(c, args, result):
    c["io.parse_graph.bytes"] += len(args[0].encode())


def _on_serialize(c, args, result):
    c["io.serialize_graph.bytes"] += len(result.encode())


def _on_product(c, args, result):
    c["products.oriented_product.edges"] += result.graph.m


_ON_RETURN = {
    "spectra.skew_spectrum": _on_skew_spectrum,
    "spectra.symmetric_eigenvalues": _on_symmetric_eigenvalues,
    "spectra.skew_gram": lambda c, a, r: _dense(c, a[0].n),
    "spectra.is_gram_scalar": lambda c, a, r: _dense(c, a[0].n),  # its k * I
    "graph.skew_adjacency": lambda c, a, r: _dense(c, a[0].n),
    "graph.adjacency_matrix": lambda c, a, r: _dense(c, a[0].n),
    "switching.chordless_cycles": _on_chordless,
    "search.find_max_energy_orientation": _on_search,
    "io.parse_graph": _on_parse,
    "io.serialize_graph": _on_serialize,
    "products.oriented_product": _on_product,
}


class Tracer:
    """Install with ``install()``, read with ``snapshot()``, undo with
    ``remove()``.  ``reset()`` zeroes the numbers between passes."""

    def __init__(self, timed: bool):
        self.timed = timed
        self.names = SPANS + _COUNT_ONLY if timed else _EXACT
        self._patched: list = []
        self._stack: list = []
        self.reset()

    def reset(self) -> None:
        self.stats = {name: [0.0, 0.0, 0, 0] for name in self.names}
        self.counters = dict.fromkeys(COUNTERS, 0)

    def install(self) -> None:
        mods = [m for k, m in sys.modules.items() if k.split(".")[0] == "skewspec"]
        for name in self.names:
            mod, attr = name.split(".")
            original = getattr(sys.modules[f"skewspec.{mod}"], attr)
            wrapper = self._wrap(name, original)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._patched.append((m, key, original))

    def remove(self) -> None:
        for m, key, original in reversed(self._patched):
            setattr(m, key, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        on_return = _ON_RETURN.get(name)
        stack = self._stack

        if not (self.timed and name in SPANS):

            @functools.wraps(fn)
            def counting(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.stats[name][2] += 1
                if on_return:
                    on_return(self.counters, args, result)
                return result

            return counting

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            st = self.stats[name]
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                st[3] += 1
                raise
            finally:
                dt = perf_counter() - t0
                st[0] += dt
                st[1] += dt - stack.pop()
                st[2] += 1
                if stack:
                    stack[-1] += dt
            if on_return:
                on_return(self.counters, args, result)
            return result

        return timed

    def exact(self) -> dict:
        """The counters that must repeat exactly between passes and runs."""
        return {
            "search.states": self.counters["search.states"],
            "switching.chordless_cycles.count": self.counters["switching.chordless_cycles.count"],
            "spectra.eig_dim_sum": self.counters["spectra.eig_dim_sum"],
            "spectra.skew_spectrum.calls": self.stats["spectra.skew_spectrum"][2],
        }

    def snapshot(self) -> dict:
        """Per-layer metrics of the numbers recorded since the last reset."""
        out = {}
        for name in SPANS:
            s, self_s, calls, errors = self.stats[name]
            out[f"{name}.s"] = s
            out[f"{name}.self_s"] = self_s
            out[f"{name}.calls"] = calls
            out[f"{name}.errors"] = errors
        out.update(self.counters)
        cycles = self.counters["switching.chordless_cycles.count"]
        tests = self.stats["switching.is_uniformly_oriented"][2]
        # Useful to attempted: cycles the predicate tested over cycles
        # enumerated for it; 0 where no cycle was enumerated.
        out["switching.uniform_tests_per_cycle"] = tests / cycles if cycles else 0.0
        search_s = self.stats["search.find_max_energy_orientation"][0]
        states = self.counters["search.states"]
        out["search.states_per_s"] = states / search_s if search_s else 0.0
        return out
