"""Traced run: call ``qfp.cli.main`` in-process with timing spans per layer.

    python tracer.py PLAN.json RESULT.json

PLAN.json holds ``{"dir": ..., "invocations": [[arg, ...], ...]}``.  The
invocations run one after another in ``dir``, in this process.  RESULT.json
receives, per invocation, the exit code and captured stdout, and the
per-layer metrics of the whole plan.

The spans live in this file; the program is not edited.  Each function
listed in ``SPANS`` is replaced by a timing wrapper in every ``qfp.*``
namespace that binds it, its defining module included: calls written as
``kernels.click_counts(...)`` resolve there, and so do the calls a layer
makes to itself (``noise_verdicts`` -> ``binomial_cdf``).  A span's self
time is its duration minus that of its direct child spans, so time spent
in a function that is not listed counts towards the listed caller.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import json
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass

# metric -> the functions whose spans' self time it sums; every wrapped
# function belongs to exactly one metric, so the self times add up to the
# root spans' total
SPANS = {
    "cli.self_s": ("cli.main",),
    "modes.port_probabilities.self_s": ("modes.port_probabilities",),
    "modes.state_ops.self_s": ("modes.prepare_split", "modes.apply_phases",
                               "modes.recombine", "modes.inverse_recombine"),
    "ecc.self_s": ("ecc.identity_code", "ecc.repetition_code",
                   "ecc.hadamard_code", "ecc.random_linear_code",
                   "ecc.min_distance_bruteforce", "ecc.encode",
                   "ecc.bits_to_hex", "ecc.hamming_distance",
                   "ecc.justesen_nu", "ecc.load_code", "ecc.save_code"),
    "protocol.run_batch.self_s": ("protocol.run_batch",),
    "protocol.run_exact.self_s": ("protocol.run_exact",
                                  "protocol.exact_report_row"),
    "protocol.batch_report_rows.self_s": ("protocol.batch_report_rows",),
    "classical.self_s": ("classical.brute_force_smp",
                         "classical.shared_randomness_floor",
                         "classical.smp_equality_lower_bounds",
                         "classical.full_bound_report",
                         "classical.breakeven_n"),
    "physical.self_s": ("physical.conditional_error_with_noise",
                        "physical.feasible_d",
                        "physical.photon_number_distribution"),
    "kernels.click_counts.self_s": ("kernels.click_counts",),
    "kernels.noise_verdicts.self_s": ("kernels.noise_verdicts",),
    "kernels.binomial_cdf.self_s": ("kernels.binomial_cdf",),
    "kernels.min_nonzero_weight.self_s": ("kernels.min_nonzero_weight",),
    "kernels.smp_exhaustive_search.self_s": ("kernels.smp_exhaustive_search",),
    "kernels.splitmix64_stream.self_s": ("kernels.splitmix64_stream",),
    "reports.csv_text.self_s": ("reports.csv_text",),
    "reports.json_text.self_s": ("reports.json_text",),
    "reports.atomic_write_text.self_s": ("reports.atomic_write_text",),
}

# function -> (count metric, work done by one call, from arguments and result)
COUNTS = {
    "modes.port_probabilities": ("modes.amplitudes",
                                 lambda a, r: 2 * a["state"].m),
    "protocol.batch_report_rows": ("protocol.rows", lambda a, r: len(r)),
    "protocol.exact_report_row": ("protocol.rows", lambda a, r: 1),
    "kernels.click_counts": ("kernels.click_draws",
                             lambda a, r: a["k"] * a["trials"]),
    "kernels.noise_verdicts": ("kernels.noise_draws",
                               lambda a, r: 5 * a["k"] * a["trials"]),
    "kernels.binomial_cdf": ("kernels.dark_table_entries",
                             lambda a, r: len(r)),
    "kernels.min_nonzero_weight": ("kernels.oracle_messages",
                                   lambda a, r: 2 ** len(a["generator"]) - 1),
    "kernels.smp_exhaustive_search": (
        "kernels.smp_strategies",
        lambda a, r: (a["alice_msgs"] ** a["q"] * a["bob_msgs"] ** a["q"]
                      * 2 ** (a["alice_msgs"] * a["bob_msgs"]))),
    "reports.atomic_write_text": ("reports.bytes",
                                  lambda a, r: os.path.getsize(a["path"])),
}

LAYERS = ("cli", "modes", "ecc", "protocol", "classical", "physical",
          "kernels", "reports")

METRICS = (tuple(SPANS)
           + tuple(dict.fromkeys(name for name, _ in COUNTS.values()))
           + tuple(f"{layer}.raised" for layer in LAYERS)
           + ("trace.total_s",))


@dataclass
class Span:
    parent: int | None
    function: str
    start: float
    end: float = 0.0


class Tracer:
    """Spans and counts kept in memory for one traced process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counts = Counter()
        self.raised = Counter()
        self.missing: list[str] = []

    def wrap(self, function: str, fn):
        layer = function.split(".")[0]
        count = COUNTS.get(function)
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(self.stack[-1] if self.stack else None, function,
                        time.perf_counter())
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[layer] += 1
                raise
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
            if count:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts[count[0]] += count[1](bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every listed function in each ``qfp.*`` namespace."""
        import qfp.cli  # noqa: F401  (imports every layer)

        namespaces = [module for name, module in sys.modules.items()
                      if name == "qfp" or name.startswith("qfp.")]
        for functions in SPANS.values():
            for function in functions:
                layer, name = function.split(".")
                original = getattr(sys.modules[f"qfp.{layer}"], name, None)
                if original is None:
                    self.missing.append(function)
                    continue
                traced = self.wrap(function, original)
                for module in namespaces:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, traced)

    def metrics(self) -> dict:
        """Self time per metric, counts, raised calls and the traced total."""
        function_metric = {f: metric for metric, functions in SPANS.items()
                           for f in functions}
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        values = dict.fromkeys(METRICS, 0)
        for span, children in zip(self.spans, child_time):
            values[function_metric[span.function]] += (
                span.end - span.start - children)
            if span.parent is None:
                values["trace.total_s"] += span.end - span.start
        values.update(self.counts)
        for layer in LAYERS:
            values[f"{layer}.raised"] = self.raised[layer]
        return values


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    tracer = Tracer()
    tracer.install()
    import qfp.cli

    os.chdir(plan["dir"])
    invocations = []
    for argv in plan["invocations"]:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = qfp.cli.main(argv)
        invocations.append({"rc": rc, "stdout": stdout.getvalue()})
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"invocations": invocations, "metrics": tracer.metrics(),
                   "missing": tracer.missing}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
