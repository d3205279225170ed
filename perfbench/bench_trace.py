"""Span tracer for the traced benchmark run.

The tracer wraps simstack's public functions by rebinding the attributes
their callers look up (module functions such as `simstack.experiment.train`,
and methods such as `ForwardOperator.tau_cogradients`), so no code under
`src/` changes. Each call becomes one span: name, owning process, span id,
parent span id, trial index, start, end, self time (its duration minus the
time of its child spans) and a few attributes read from the arguments or
the result (flops of a complex product, fit residual, bits simulated, ...).

Spans are kept in memory. Pool workers ship the spans of each trial back
to the parent attached to the trial's record; `run_trials` hands them to
the parent's buffer. Start and end come from `time.perf_counter`, which on
Linux reads CLOCK_MONOTONIC, so spans of different processes share one
time axis.
"""

import functools
import os
import statistics
import time

_clock = time.perf_counter

SPAN_FIELDS = ("pid", "id", "parent", "name", "trial", "t0", "t1", "self_s")

# The tracer of this process, and the process that started tracing. Module
# level because pool workers reach them through `traced_trial_task`, which
# is pickled by reference.
TRACER = None
_OWNER_PID = None


def _product_flops(rows, w_list):
    """Real flops of the complex products (rows x Q_{l-1}) @ (Q_{l-1} x Q_l)
    for l >= 2: 8 per complex multiply-add."""
    return sum(8 * rows * w.shape[0] * w.shape[1] for w in w_list[1:])


class Tracer:
    def __init__(self):
        self.pid = os.getpid()
        self.spans = []      # tuples of SPAN_FIELDS + (attrs,)
        self.stack = []      # open frames: [id, name, child_s, attrs]
        self.next_id = 0
        self.trial = -1
        self.patches = []    # (owner, attribute, original)

    # -- recording -----------------------------------------------------
    def wrap(self, name, fn, attrs_of=None):
        """Return `fn` recording one span per call; `attrs_of(args, result,
        attrs)` fills the span's attribute dict from a successful call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [tracer.next_id, name, 0.0, {}]
            tracer.next_id += 1
            stack = tracer.stack
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                if stack:
                    stack[-1][2] += t1 - t0
                tracer.spans.append((tracer.pid, frame[0], parent, name, tracer.trial,
                                     t0, t1, t1 - t0 - frame[2], frame[3]))
            if attrs_of is not None:
                attrs_of(args, result, frame[3])
            return result
        return traced

    def count_in(self, span_name, key, fn):
        """Return `fn` counting its calls into the attribute `key` of the
        innermost open span named `span_name`, without a span of its own."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for frame in reversed(tracer.stack):
                if frame[1] == span_name:
                    frame[3][key] = frame[3].get(key, 0) + 1
                    break
            return fn(*args, **kwargs)
        return counted

    # -- installation --------------------------------------------------
    def patch(self, owner, attribute, replacement):
        self.patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def original(self, owner, attribute):
        for o, a, fn in self.patches:
            if o is owner and a == attribute:
                return fn
        return getattr(owner, attribute)

    def install(self):
        from simstack import (config, device, experiment, optim, precoding,
                              propagation, training)
        wrap, patch = self.wrap, self.patch
        fwd = propagation.ForwardOperator

        def forward_attrs(args, result, attrs):
            attrs["flops"] = _product_flops(args[1][0].shape[0], args[1])

        def cograd_attrs(args, result, attrs):
            attrs["flops"] = _product_flops(args[1].shape[0], args[0].w_list)

        def train_attrs(args, result, attrs):
            losses = result[2].losses
            attrs.update(restarted=int(result[2].restarted), first_loss=losses[0],
                         best_loss=min(losses))

        def fit_attrs(args, result, attrs):
            attrs.update(iterations=result.n_iterations, converged=int(result.converged),
                         residual=result.residual)

        def block_attrs(args, result, attrs):
            attrs["bits"] = result[1]

        patch(config, "load_config", wrap("config.load_config", config.load_config))
        patch(config.ExperimentConfig, "build_geometry",
              wrap("config.build_geometry", config.ExperimentConfig.build_geometry))
        chain = wrap("propagation.coupling_chain", propagation.coupling_chain)
        patch(propagation, "coupling_chain", chain)
        patch(experiment, "coupling_chain", chain)
        patch(fwd, "__init__", wrap("propagation.forward", fwd.__init__, forward_attrs))
        patch(fwd, "tau_cogradients",
              wrap("propagation.tau_cogradients", fwd.tau_cogradients, cograd_attrs))
        patch(device.SimDevice, "taus", wrap("device.taus", device.SimDevice.taus))
        patch(device.SimDevice, "param_grad",
              wrap("device.param_grad", device.SimDevice.param_grad))
        for cls in (optim.Adam, optim.GradientDescent):
            patch(cls, "step", wrap("optim.step", cls.step))
        patch(experiment, "train", wrap("training.train", experiment.train, train_attrs))
        patch(training, "_loss_and_cograds",
              self.count_in("training.train", "iterations", training._loss_and_cograds))
        patch(experiment, "svd_target", wrap("design.svd_target", experiment.svd_target))
        patch(experiment, "fit_sim_to_target",
              wrap("design.fit", experiment.fit_sim_to_target, fit_attrs))
        pre = wrap("precoding.mmse_precoder", precoding.mmse_precoder)
        patch(experiment, "mmse_precoder", pre)
        patch(training, "mmse_precoder", pre)
        patch(experiment, "simulate_block",
              wrap("linklevel.simulate_block", experiment.simulate_block, block_attrs))
        patch(experiment, "run_trial", self._trial_span(experiment.run_trial))
        patch(experiment, "_trial_task", traced_trial_task)
        patch(experiment, "run_trials", self._collecting(experiment.run_trials))
        patch(experiment, "run_experiment",
              wrap("experiment.run_experiment", experiment.run_experiment))

    def uninstall(self):
        while self.patches:
            owner, attribute, original = self.patches.pop()
            setattr(owner, attribute, original)

    def _trial_span(self, run_trial):
        span = self.wrap("experiment.run_trial", run_trial)

        @functools.wraps(run_trial)
        def traced(cfg, index, trial_seed):
            self.trial = index
            try:
                return span(cfg, index, trial_seed)
            finally:
                self.trial = -1
        return traced

    def _collecting(self, run_trials):
        @functools.wraps(run_trials)
        def collecting(*args, **kwargs):
            records = run_trials(*args, **kwargs)
            for record in records:
                self.spans.extend(record.__dict__.pop("trace_spans", ()))
            return records
        return collecting

    # -- output --------------------------------------------------------
    def write_csv(self, path):
        with open(path, "w") as f:
            f.write(",".join(SPAN_FIELDS) + "\n")
            for s in self.spans:
                f.write(f"{s[0]},{s[1]},{s[2]},{s[3]},{s[4]},{s[5]!r},{s[6]!r},{s[7]!r}\n")


def traced_trial_task(args):
    """Stand-in for `simstack.experiment._trial_task`. In a pool worker it
    runs the trial under the worker's own tracer and attaches the spans to
    the returned record."""
    global TRACER
    from simstack import experiment
    if os.getpid() == _OWNER_PID:
        return TRACER.original(experiment, "_trial_task")(args)
    if TRACER is None:                   # worker started by spawn or forkserver
        TRACER = Tracer()
        TRACER.install()
    # a forked worker starts with a copy of the parent's spans and open spans
    TRACER.pid, TRACER.spans, TRACER.stack = os.getpid(), [], []
    record = TRACER.original(experiment, "_trial_task")(args)
    record.trace_spans = TRACER.spans
    return record


def start():
    """Create this process's tracer and wrap simstack's functions."""
    global TRACER, _OWNER_PID
    TRACER, _OWNER_PID = Tracer(), os.getpid()
    TRACER.install()
    return TRACER


def _union_length(intervals, lo, hi):
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class _Spans:
    """Spans grouped by name, with sums over each group."""

    def __init__(self, spans):
        self.by_name = {}
        for s in spans:
            self.by_name.setdefault(s[3], []).append(s)

    def get(self, name):
        return self.by_name.get(name, ())

    def calls(self, name):
        return len(self.get(name))

    def self_s(self, name):
        return sum(s[7] for s in self.get(name))

    def incl_s(self, name):
        return sum(s[6] - s[5] for s in self.get(name))

    def attr_sum(self, name, key):
        return sum(s[8].get(key, 0) for s in self.get(name))


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(spans):
    """Per-layer metrics: times are self times summed over the spans,
    counts are exact, rates divide by self time."""
    t = _Spans(spans)
    m = {}
    for name in ("config.load_config", "config.build_geometry", "propagation.coupling_chain",
                 "device.param_grad", "design.svd_target"):
        m[f"{name}.s"] = t.self_s(name)
    for name in ("propagation.forward", "propagation.tau_cogradients", "device.taus",
                 "optim.step", "training.train", "design.fit", "precoding.mmse_precoder",
                 "linklevel.simulate_block"):
        m[f"{name}.calls"] = t.calls(name)
        m[f"{name}.s"] = t.self_s(name)
    for name in ("propagation.forward", "propagation.tau_cogradients"):
        m[f"{name}.gflop_s"] = _ratio(t.attr_sum(name, "flops"), t.self_s(name)) / 1e9
    iterations = t.attr_sum("training.train", "iterations")
    m["training.iterations"] = iterations
    m["training.restarts"] = t.attr_sum("training.train", "restarted")
    # per iteration of the whole train call, layers below included
    m["training.iter_ms"] = 1e3 * _ratio(t.incl_s("training.train"), iterations)
    m["design.fit.iterations"] = t.attr_sum("design.fit", "iterations")
    m["design.fit.converged"] = t.attr_sum("design.fit", "converged")
    m["design.fit.residual_mean"] = _ratio(t.attr_sum("design.fit", "residual"),
                                           t.calls("design.fit"))
    m["linklevel.bits"] = t.attr_sum("linklevel.simulate_block", "bits")
    m["linklevel.bits_per_s"] = _ratio(m["linklevel.bits"],
                                       t.self_s("linklevel.simulate_block"))
    trials = [s[6] - s[5] for s in t.get("experiment.run_trial")]
    m["experiment.run_trial.calls"] = len(trials)
    m["experiment.run_trial.s_p50"] = statistics.median(trials) if trials else 0.0
    overhead = 0.0
    for run in t.get("experiment.run_experiment"):
        inside = [(s[5], s[6]) for s in t.get("experiment.run_trial")
                  if s[6] > run[5] and s[5] < run[6]]
        overhead += (run[6] - run[5]) - _union_length(inside, run[5], run[6])
    m["experiment.overhead_s"] = overhead
    return m


def trace_info(spans, untraced_wall):
    """How the traced round splits: the share of its `run_experiment` time
    that trial spans cover (their union, since a pool runs trials side by
    side), its wall time against the untraced round's, and the inclusive
    time of the main stages as shares of all trial time."""
    t = _Spans(spans)
    runs = t.get("experiment.run_experiment")
    traced_wall = t.incl_s("experiment.run_experiment")
    union = sum(_union_length([(s[5], s[6]) for s in t.get("experiment.run_trial")],
                              run[5], run[6]) for run in runs)
    trial = t.incl_s("experiment.run_trial")
    info = {"untraced_round_s": untraced_wall, "traced_round_s": traced_wall,
            "trial_spans_cover_pct": 100.0 * _ratio(union, traced_wall),
            "trial_span_sum_s": trial}
    for name in ("training.train", "design.fit", "linklevel.simulate_block",
                 "precoding.mmse_precoder"):
        info[f"{name}.share_pct"] = 100.0 * _ratio(t.incl_s(name), trial)
    return info
