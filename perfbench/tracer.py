"""Per-layer spans and counts, recorded from outside the program.

The tracer wraps public functions of the ``patchprior`` modules in place.
Each call becomes a span with a name, a start, an end and the index of the
span that was open when it began, kept in memory until the run ends.
Counts are recorded at the same boundaries.  Nothing inside ``src/`` is
changed: a wrapper replaces every module-level name bound to the original
function object, because modules import functions by name (``denoise``
imports ``component_log_densities`` from ``gmm``, and the package re-exports
``denoise`` and ``adapt`` under the names of their own submodules).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import Counter

import numpy.linalg
import scipy.linalg

# Layer name -> (module, attribute).  Layers are named by module; the two
# CLI handlers are private functions that ``cli_dispatch`` looks up on
# every call, so wrapping them times one command from inside the process.
SPANS = {
    "patches.extract_patches": ("patchprior.patches", "extract_patches"),
    "patches.accumulate_patches": ("patchprior.patches", "accumulate_patches"),
    "gmm.component_log_densities": ("patchprior.gmm", "component_log_densities"),
    "gmm.responsibilities": ("patchprior.gmm", "responsibilities"),
    "gmm.sufficient_stats": ("patchprior.gmm", "sufficient_stats"),
    "gmm.log_posterior_objective": ("patchprior.gmm", "log_posterior_objective"),
    "gmm.condition_psd": ("patchprior.gmm", "condition_psd"),
    "denoise.select_modes": ("patchprior.denoise", "select_modes"),
    "denoise.denoise": ("patchprior.denoise", "denoise"),
    "adapt.adaptation_mstep": ("patchprior.adapt", "adaptation_mstep"),
    "adapt.adapt": ("patchprior.adapt", "adapt"),
    "em.em_fit": ("patchprior.em", "em_fit"),
    "sure.estimate_sigma_tilde_sq": ("patchprior.sure", "estimate_sigma_tilde_sq"),
    "cli.adapt": ("patchprior.cli", "_cmd_adapt"),
    "cli.denoise": ("patchprior.cli", "_cmd_denoise"),
    "pgm.read_pgm": ("patchprior.pgm", "read_pgm"),
    "pgm.write_pgm": ("patchprior.pgm", "write_pgm"),
    "model_io.load_model": ("patchprior.model_io", "load_model"),
    "model_io.save_model": ("patchprior.model_io", "save_model"),
}

# Library factorizations counted (not timed) while a program span is open.
FACTORIZATIONS = ((scipy.linalg, "cholesky"), (scipy.linalg, "cho_factor"),
                  (numpy.linalg, "eigh"))

# Per-layer metric -> unit, in the order they are printed.  ``.s`` is the
# summed duration of a layer's spans, ``.self_s`` that minus the time its
# child spans cover, ``.calls`` the span count; the rest are exact counts.
METRICS = {
    "patches.extract_patches.s": "s",
    "patches.extract_patches.calls": "count",
    "patches.accumulate_patches.s": "s",
    "patches.accumulate_patches.calls": "count",
    "gmm.component_log_densities.s": "s",
    "gmm.component_log_densities.calls": "count",
    "gmm.component_log_densities.evals": "count",
    "gmm.component_log_densities.evals_per_s": "1/s",
    "gmm.responsibilities.s": "s",
    "gmm.sufficient_stats.s": "s",
    "gmm.log_posterior_objective.s": "s",
    "gmm.log_posterior_objective.calls": "count",
    "gmm.condition_psd.s": "s",
    "gmm.condition_psd.calls": "count",
    "linalg.factorizations": "count",
    "denoise.select_modes.s": "s",
    "denoise.denoise.s": "s",
    "denoise.denoise.self_s": "s",
    "denoise.denoise.calls": "count",
    "adapt.adapt.s": "s",
    "adapt.adapt.self_s": "s",
    "adapt.adaptation_mstep.s": "s",
    "adapt.iterations": "count",
    "em.em_fit.s": "s",
    "em.em_fit.self_s": "s",
    "em.iterations": "count",
    "sure.estimate_sigma_tilde_sq.s": "s",
    "sure.denoiser_calls": "count",
    "cli.adapt.s": "s",
    "cli.adapt.self_s": "s",
    "cli.adapt.calls": "count",
    "cli.adapt.denoise_calls": "count",
    "cli.denoise.s": "s",
    "cli.denoise.self_s": "s",
    "cli.denoise.calls": "count",
    "pgm.read_pgm.s": "s",
    "pgm.write_pgm.s": "s",
    "model_io.load_model.s": "s",
    "model_io.save_model.s": "s",
}


def _patch_rows(points) -> int:
    return getattr(points, "data", points).shape[0]


class Tracer:
    """In-memory span recorder; install() wraps, uninstall() restores."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or None]
        self.counts = Counter()
        self._stack = []
        self._paused = False
        self._restore = []   # (namespace, attribute, original)

    # -- recording -------------------------------------------------------

    def _open(self, name) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _ancestor_named(self, name) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside this block are neither timed nor counted."""
        self._paused, before = True, self._paused
        try:
            yield
        finally:
            self._paused = before

    def _span_wrapper(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            args, kwargs = self._before(name, args, kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            self._after(name, result)
            return result
        return traced

    def _count_wrapper(self, key, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._stack and not self._paused:
                self.counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def _before(self, name, args, kwargs):
        if name == "gmm.component_log_densities":
            gmm = kwargs.get("gmm", args[0] if args else None)
            points = kwargs.get("points", args[1] if len(args) > 1 else None)
            self.counts["gmm.component_log_densities.evals"] += (
                _patch_rows(points) * gmm.n_components)
        elif name == "denoise.denoise" and self._ancestor_named("cli.adapt"):
            self.counts["cli.adapt.denoise_calls"] += 1
        elif name == "sure.estimate_sigma_tilde_sq":
            args = list(args)
            if len(args) > 2:
                args[2] = self._counted_denoiser(args[2])
            else:
                kwargs["denoiser"] = self._counted_denoiser(kwargs["denoiser"])
        return args, kwargs

    def _counted_denoiser(self, denoiser):
        def counted(image):
            self.counts["sure.denoiser_calls"] += 1
            return denoiser(image)
        return counted

    def _after(self, name, result):
        if name == "em.em_fit":
            self.counts["em.iterations"] += len(result[1])
        elif name == "adapt.adapt":
            self.counts["adapt.iterations"] += len(result[1].objectives)

    # -- installation ----------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        """Point every patchprior module-level name bound to ``original``
        at ``replacement``."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "patchprior"
                                      or mod_name.startswith("patchprior.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        for name, (mod_name, attr) in SPANS.items():
            # importlib reaches the submodule even where the package
            # attribute of the same name is a re-exported function.
            original = getattr(importlib.import_module(mod_name), attr)
            self._rebind(original, self._span_wrapper(name, original))
        for namespace, attr in FACTORIZATIONS:
            original = getattr(namespace, attr)
            self._restore.append((namespace, attr, original))
            setattr(namespace, attr, self._count_wrapper("linalg.factorizations", original))

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._restore):
            setattr(namespace, attr, original)
        self._restore.clear()

    # -- reporting -------------------------------------------------------

    def write(self, path, extra=None) -> None:
        record = {"spans": [{"name": n, "start": s, "end": e, "parent": p}
                            for n, s, e, p in self.spans],
                  "counts": dict(self.counts)}
        record.update(extra or {})
        with open(path, "w", encoding="ascii") as handle:
            json.dump(record, handle)

    def metrics(self) -> dict:
        return layer_metrics(self.spans, self.counts)


def self_times(spans) -> list:
    """Duration of each span minus the part of it its children cover.

    Children of one parent may in principle overlap or poke outside it,
    so the covered part is the union of the children's intervals clipped
    to the parent.
    """
    children = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent is not None:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c in sorted(children[i], key=lambda j: spans[j][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_metrics(spans, counts) -> dict:
    """Every metric in METRICS from recorded spans and counts."""
    total, own, calls = Counter(), Counter(), Counter()
    for (name, start, end, _), self_s in zip(spans, self_times(spans)):
        total[name] += end - start
        own[name] += self_s
        calls[name] += 1
    values = {}
    for metric in METRICS:
        layer, _, suffix = metric.rpartition(".")
        if suffix == "s":
            values[metric] = total[layer]
        elif suffix == "self_s":
            values[metric] = own[layer]
        elif suffix == "calls":
            values[metric] = calls[layer]
        elif suffix == "evals_per_s":
            seconds = total[layer]
            values[metric] = counts.get(f"{layer}.evals", 0) / seconds if seconds > 0 else 0.0
        else:
            values[metric] = counts.get(metric, 0)
    return values
