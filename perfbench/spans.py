"""Span recording around mixapprox's public functions, installed from outside.

A wrapper replaces every binding of a traced function in the loaded
`mixapprox` modules (so `from .grids import convolve` in another module is
caught too) and, for methods, the class attribute.  Each call appends one
span ``[name index, start, end, parent span]`` to an in-memory list; counts
taken from arguments and results accumulate per name.  Nothing is written
until :meth:`Recorder.dump`.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time


def _count_em(acc, args, kwargs, fit):
    acc["iterations"] = acc.get("iterations", 0) + int(fit.iterations)
    acc["converged"] = acc.get("converged", 0) + int(bool(fit.converged))


def _count_convolve(acc, args, kwargs, out):
    acc["in_points"] = acc.get("in_points", 0) + int(args[0].values.size)
    acc["out_points"] = acc.get("out_points", 0) + int(out.values.size)


def _count_points(acc, args, kwargs, values):
    acc["points"] = acc.get("points", 0) + int(values.size)


def _count_dictionary(acc, args, kwargs, dictionary):
    acc["entries"] = acc.get("entries", 0) + int(dictionary.values.size)


def _count_greedy(acc, args, kwargs, fit):
    acc["steps"] = acc.get("steps", 0) + len(fit.mixtures)


def _record_best_fit(acc, args, kwargs, best):
    """[log-likelihood, converged, k at the top of the scale grid] per call."""
    k_grid = args[2] if len(args) > 2 else kwargs["k_grid"]
    acc.setdefault("fits", []).append(
        [best.log_likelihood, bool(best.fit.converged), best.k == max(k_grid)])


# Traced callables, "<module>.<attribute path>", with the counter for each.
TRACED = {
    "config.load_config": None,
    "harness.run_study": None,
    "harness.emit_report": None,
    "densities.TargetDensity.sample": None,
    "kernels.check_moment_condition": None,
    "kernels.certify_approximate_identity": None,
    "grids.sample_on_grid": None,
    "grids.convolve": _count_convolve,
    "grids.restrict": None,
    "divergences.kl_divergence": None,
    "divergences.lq_norm": None,
    "mixtures.FiniteMixture.component_log_pdf": None,
    "mixtures.FiniteMixture.pdf": _count_points,
    "mixtures.MixtureDictionary.evaluate_at": None,
    "mixtures.em_fit": _count_em,
    "mixtures.mle_fit": _record_best_fit,
    "mixtures.build_mixing_approximant": None,
    "mixtures.build_dictionary": _count_dictionary,
    "mixtures.greedy_fit": _count_greedy,
    "bounds.compute_A_logratio": None,
    "bounds.estimate_B_lipschitz": None,
    "bounds.hull_kl_constant": None,
    "bounds.target_kl_constant": None,
    "bounds.covering_number": None,
    "bounds.dudley_entropy_integral": None,
}

# Untraced passes still record every best fit `mle_fit` returns, for the
# likelihood check; it is called a few dozen times per pass.
UNTRACED = ("mixtures.mle_fit",)


class Recorder:
    def __init__(self):
        self.names: list = []
        self.spans: list = []
        self.counts: dict = {}
        self._stack = [-1]

    @property
    def mle_fits(self) -> list:
        return self.counts.get("mixtures.mle_fit", {}).get("fits", [])

    def install(self, targets) -> None:
        for target in targets:
            module_name, _, path = target.partition(".")
            owner = importlib.import_module(f"mixapprox.{module_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(target, original, TRACED[target])
            setattr(owner, attr, wrapper)
            if outer:
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "mixapprox" or mod_name.startswith("mixapprox."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def _wrap(self, name, fn, count):
        name_id = len(self.names)
        self.names.append(name)
        acc = self.counts.setdefault(name, {})
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name_id, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if count is not None:
                count(acc, args, kwargs, result)
            return result

        return wrapper

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans, "counts": self.counts}
