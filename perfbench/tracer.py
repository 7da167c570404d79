"""Per-layer tracing of one in-process `fbmpassage` CLI run.

`Tracer.install` replaces entry points of the program's modules with
timed wrappers, in every `fbmpassage` module that refers to them, so the
program's own code is unchanged.  Each wrapper is a span: the tracer keeps
a stack of open spans and books each span's self time (its duration minus
the spans it encloses) and its call count under the span's name.  Spans
are kept as these per-name tallies in memory and written out when the run
ends.

The runner's process pool is replaced by an executor that counts the pools
the runner starts and runs their work in this process, so every chunk is
traced while the CLI still gets the workload's own worker count.  An entry
point that the program no longer has is listed as absent and its metrics
read zero.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# unit of every per-layer metric, in the order they are reported
UNITS = {
    "rng.substreams": "count",
    "rng.substream_s": "s",
    "rng.normals": "count",
    "rng.uniforms": "count",
    "rng.draw_s": "s",
    "rng.normals_unique_ratio": "ratio",
    "rng.uniforms_used_ratio": "ratio",
    "fgn.spectra": "count",
    "fgn.spectrum_s": "s",
    "fgn.pairs": "count",
    "fgn.sample_s": "s",
    "fgn.noise_bytes": "B",
    "passage.plain_s": "s",
    "passage.bridge_s": "s",
    "passage.path_steps": "count",
    "sde.lamperti_builds": "count",
    "sde.lamperti_s": "s",
    "sde.euler_s": "s",
    "sde.drift_evals": "count",
    "sde.drift_s": "s",
    "runner.simulations": "count",
    "runner.chunks": "count",
    "runner.pools": "count",
    "runner.self_s": "s",
    "estimate.reduce_s": "s",
    "cli.self_s": "s",
    "cli.csv_bytes": "B",
    "proc.minor_faults": "count",
    "proc.sys_s": "s",
    "trace.overhead_s": "s",
}

# bytes of one complex128 noise entry
_COMPLEX_BYTES = 16


def _size(size) -> int:
    if size is None:
        return 1
    if isinstance(size, int):
        return size
    total = 1
    for n in size:
        total *= int(n)
    return total


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.absent: list[str] = []
        self._open = [0.0]  # time covered by child spans, one entry per open span
        self._normal_keys: set = set()

    def span(self, name: str, fn):
        """`fn` wrapped so that each call is booked as a span called `name`."""
        open_spans, self_s, calls = self._open, self.self_s, self.calls
        clock = time.perf_counter

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = open_spans.pop()
                open_spans[-1] += elapsed
                self_s[name] += elapsed - inner
                calls[name] += 1

        return traced

    # -- hooks ---------------------------------------------------------------

    def _replace(self, package: str, module: str, attr: str, make_wrapper) -> None:
        """Point every `package.*` reference to `module.attr` at make_wrapper(original)."""
        defining = sys.modules.get(f"{package}.{module}")
        original = getattr(defining, attr, None)
        if original is None:
            self.absent.append(f"{module}.{attr}")
            return
        wrapper = make_wrapper(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == package or name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def _substream(self, rng_module):
        counts, keys = self.counts, self._normal_keys
        gaussian = getattr(rng_module, "GAUSSIAN_STREAM", 0)

        def make(original):
            timed = self.span("rng.substream", original)

            def substream(master_seed, stream, index):
                counts["rng.substreams"] += 1
                if stream == gaussian:
                    counts["rng.normal_streams"] += 1
                    keys.add((int(master_seed), int(index)))
                return _CountingGenerator(timed(master_seed, stream, index), self)

            return substream

        return make

    def _tallied(self, span_name: str, tally=None):
        """Wrapper maker: each call is a span called `span_name`.

        `tally(*args)` returns {counter: amount} for the call's arguments;
        it runs first, in a trace.bookkeeping span, so that its cost stays
        out of the layer times.
        """

        def make(original):
            timed = self.span(span_name, original)
            if tally is None:
                return timed
            book = self.span("trace.bookkeeping", lambda *args: self.counts.update(tally(*args)))

            def tallied(*args, **kwargs):
                book(*args)
                return timed(*args, **kwargs)

            return tallied

        return make

    def _euler(self, original):
        timed = self.span("sde.euler", original)
        counts = self.counts

        def euler(reduced_drift, *args, **kwargs):
            timed_drift = self.span("sde.drift", reduced_drift)

            def drift(y):
                counts["sde.drift_evals"] += getattr(y, "size", 1)
                return timed_drift(y)

            return timed(drift, *args, **kwargs)

        return euler

    def _pool_class(self, original):
        counts = self.counts

        class InlineExecutor:
            """Counts a pool start, then runs the pool's work in this process."""

            def __init__(self, *args, **kwargs):
                counts["runner.pools"] += 1

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, *iterables, **kwargs):
                return map(fn, *iterables)

        return InlineExecutor

    def install(self, cli):
        """Wrap the program's entry points; returns the traced `cli.main`."""
        package = cli.__name__.rpartition(".")[0]
        for module in ("rng", "fgn", "passage", "sde", "runner", "estimate"):
            __import__(f"{package}.{module}")
        rng_module = sys.modules[f"{package}.rng"]
        hooks = [
            ("rng", "substream", self._substream(rng_module)),
            ("fgn", "circulant_spectrum", self._tallied("fgn.spectrum")),
            ("fgn", "_sample_pair_raw", self._tallied("fgn.sample", _noise_bytes)),
            ("passage", "_simple_hit_times_batch", self._tallied("passage.plain", _path_steps)),
            ("passage", "_bridge_hit_times_batch", self._tallied("passage.bridge", _bridge_tally)),
            ("sde", "build_lamperti", self._tallied("sde.lamperti", lambda *args: {"sde.lamperti_builds": 1})),
            ("sde", "threshold_transform", self._tallied("sde.lamperti")),
            ("sde", "_euler_batch", self._euler),
            ("runner", "run_simulation", self._tallied("runner.simulation")),
            ("runner", "_chunk_compute", self._tallied("runner.chunk")),
            ("runner", "ProcessPoolExecutor", self._pool_class),
        ]
        for name in ("laplace_from_times", "gap_estimate", "density_from_times", "conjecture_moments"):
            hooks.append(("estimate", name, self._tallied("estimate.reduce")))
        for module, attr, make in hooks:
            self._replace(package, module, attr, make)
        return self.span("cli.main", cli.main)

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics this process can see (proc.*, cli.csv_bytes and
        trace.overhead_s are measured by the benchmark from outside)."""
        c, s, n = self.counts, self.self_s, self.calls
        normal_streams = c["rng.normal_streams"]
        return {
            "rng.substreams": c["rng.substreams"],
            "rng.substream_s": s["rng.substream"],
            "rng.normals": c["rng.normals"],
            "rng.uniforms": c["rng.uniforms"],
            "rng.draw_s": s["rng.draw"],
            "rng.normals_unique_ratio": len(self._normal_keys) / normal_streams if normal_streams else 0.0,
            "rng.uniforms_used_ratio": c["rng.uniforms_used"] / c["rng.uniforms"] if c["rng.uniforms"] else 0.0,
            "fgn.spectra": n["fgn.spectrum"],
            "fgn.spectrum_s": s["fgn.spectrum"],
            "fgn.pairs": n["fgn.sample"],
            "fgn.sample_s": s["fgn.sample"],
            "fgn.noise_bytes": c["fgn.noise_bytes"],
            "passage.plain_s": s["passage.plain"],
            "passage.bridge_s": s["passage.bridge"],
            "passage.path_steps": c["passage.path_steps"],
            "sde.lamperti_builds": c["sde.lamperti_builds"],
            "sde.lamperti_s": s["sde.lamperti"],
            "sde.euler_s": s["sde.euler"],
            "sde.drift_evals": c["sde.drift_evals"],
            "sde.drift_s": s["sde.drift"],
            "runner.simulations": n["runner.simulation"],
            "runner.chunks": n["runner.chunk"],
            "runner.pools": c["runner.pools"],
            "runner.self_s": s["runner.simulation"] + s["runner.chunk"],
            "estimate.reduce_s": s["estimate.reduce"],
            "cli.self_s": s["cli.main"],
        }

    def report(self) -> dict:
        return {
            "metrics": self.metrics(),
            "spans": {name: {"calls": self.calls[name], "self_s": self.self_s[name]} for name in sorted(self.calls)},
            "absent": self.absent,
        }


def _noise_bytes(spectrum, *args) -> dict:
    return {"fgn.noise_bytes": _COMPLEX_BYTES * len(spectrum)}


def _path_steps(values, *args) -> dict:
    return {"passage.path_steps": values.shape[0] * (values.shape[1] - 1)}


def _bridge_tally(values, threshold, *args) -> dict:
    """Path steps scanned, and the uniforms a bridge scan needs: one per
    step up to each row's plain hit index, all of them on a censored row."""
    mask = values >= threshold
    hit = mask.any(axis=1)
    steps = values.shape[1] - 1
    needed = int((mask.argmax(axis=1) * hit).sum()) + steps * int((~hit).sum())
    return {**_path_steps(values), "rng.uniforms_used": needed}


class _CountingGenerator:
    """Stands in for a numpy Generator; counts and times the variates drawn."""

    def __init__(self, generator, tracer: Tracer):
        self._generator = generator
        self._counts = tracer.counts
        self._normals = tracer.span("rng.draw", generator.standard_normal)
        self._uniforms = tracer.span("rng.draw", generator.random)

    def standard_normal(self, size=None, *args, **kwargs):
        self._counts["rng.normals"] += _size(size)
        return self._normals(size, *args, **kwargs)

    def random(self, size=None, *args, **kwargs):
        self._counts["rng.uniforms"] += _size(size)
        return self._uniforms(size, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._generator, name)
